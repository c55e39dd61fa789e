(** The repository's one on-disk store, and the framing under it.

    {!Store} persists content-addressed entries as one file per key
    under a cache directory; the serving tier's LRU spill, the route
    cache and the corpus PPA store are all instances of it, differing
    only in magic, suffix and counter prefix.  Each file is

      magic | 16-byte MD5(body) | body

    where [body] is a [Marshal] of [(key, value)]: the stored key is
    re-checked on read, so an MD5 filename collision or a foreign file
    can never serve the wrong value.  Writes go through a temp file +
    rename, so a crash mid-write leaves no torn entry and concurrent
    processes can share one directory; any file that fails the magic,
    digest, decode or stored-key check is deleted and read as a miss.
    Stores are bounded LRU: hits refresh an entry's mtime, and writes
    evict the oldest files past the cap (amortized; see {!Store.put}).

    All operations are best-effort and never raise on IO failure:
    [put] reports success as a bool, [find] returns [None]. *)

val path_of : dir:string -> suffix:string -> string -> string
(** [path_of ~dir ~suffix key] is the entry file for [key]:
    [dir]/MD5-hex([key])[suffix]. *)

val write_file : magic:string -> path:string -> body:string -> bool
(** Frame [body] under [magic] and atomically install it at [path]
    (temp file carrying pid + a per-process sequence, then rename).
    [false] if the write failed (disk full, read-only dir, …); a
    failed write leaves no temp file behind.  {!Store.put} writes
    through this; it is public so tests can plant framed entries. *)

module Store : sig
  type 'v t
  (** A directory of ['v] entries keyed by strings.  The value type is
      fixed by the caller's annotation; a directory must only ever be
      opened at one value type (distinct magics keep the repository's
      three stores apart). *)

  val default_max_entries : int
  (** 4096. *)

  val create :
    magic:string ->
    suffix:string ->
    counters:string ->
    ?max_entries:int ->
    string ->
    'v t
  (** [create ~magic ~suffix ~counters dir] opens the store rooted at
      [dir], creating it (and parents) if missing.  Entries are
      MD5-hex(key) ^ [suffix] files framed under [magic].  Finds count
      on the [counters ^ "_hit"] / [counters ^ "_miss"] Obs counters,
      evictions on [counters ^ "_evicted"].  [max_entries] defaults to
      {!default_max_entries} and is clamped to >= 1, so a fresh write
      always survives its own eviction pass.
      @raise Unix.Unix_error if the directory cannot be created. *)

  val dir : 'v t -> string

  val max_entries : 'v t -> int

  val find : 'v t -> string -> 'v option
  (** The entry stored under [key], if present and intact.  A hit
      refreshes the file's mtime (the LRU order).  A file that fails
      any check — magic, digest, decode, stored key — is deleted and
      reported as a miss. *)

  val put : 'v t -> string -> 'v -> bool
  (** Persist one entry and keep the directory within [max_entries].
      Eviction is amortized over [slack = max_entries / 16] puts: the
      handle's first put and every [slack]-th one after it delete the
      oldest-mtime [suffix] files down to [max_entries - slack] (caps
      below 16 evict on every put, down to [max_entries]).  A single
      writer therefore never leaves more than [max_entries] files, and
      writers sharing a directory overshoot by at most [slack] each.
      Corrupt or foreign files with the suffix count against the cap
      and age out like live entries.  [false] if the write failed. *)

  val count : 'v t -> int
  (** Number of [suffix] files currently in the directory. *)
end
