(* Doubly-linked recency list + hashtable.  The list head is the
   most-recently-used entry, the tail the eviction candidate.  All
   operations are O(1). *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
}

type 'a t = {
  cap : int;
  table : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;
  mutable tail : 'a node option;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Lru.create: negative capacity";
  {
    cap = capacity;
    table = Hashtbl.create (max 16 capacity);
    head = None;
    tail = None;
  }

let capacity c = c.cap
let length c = Hashtbl.length c.table

let unlink c n =
  (match n.prev with
  | Some p -> p.next <- n.next
  | None -> c.head <- n.next);
  (match n.next with
  | Some s -> s.prev <- n.prev
  | None -> c.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front c n =
  n.next <- c.head;
  n.prev <- None;
  (match c.head with Some h -> h.prev <- Some n | None -> c.tail <- Some n);
  c.head <- Some n

let find c key =
  match Hashtbl.find_opt c.table key with
  | None -> None
  | Some n ->
      unlink c n;
      push_front c n;
      Some n.value

let mem c key = Hashtbl.mem c.table key

let evict_tail c =
  match c.tail with
  | None -> None
  | Some n ->
      unlink c n;
      Hashtbl.remove c.table n.key;
      Some (n.key, n.value)

let put c key value =
  if c.cap = 0 then None
  else
    match Hashtbl.find_opt c.table key with
    | Some n ->
        n.value <- value;
        unlink c n;
        push_front c n;
        None
    | None ->
        let evicted =
          if Hashtbl.length c.table >= c.cap then evict_tail c else None
        in
        let n = { key; value; prev = None; next = None } in
        Hashtbl.replace c.table key n;
        push_front c n;
        evicted

let iter c f =
  let rec go = function
    | None -> ()
    | Some n ->
        f n.key n.value;
        go n.next
  in
  go c.head

let clear c =
  Hashtbl.reset c.table;
  c.head <- None;
  c.tail <- None
