(* Digest of one operation of each workload at seed offset 0, as the
   repository computed it when the ledger was defined.  A seed-0 run
   whose digest differs fails every operation: the program's numerics
   moved.  The digests hold at any DCO3D_JOBS.  Regenerate from the
   "digest" lines of [ledger.exe run] (and [run --smoke]). *)

let full =
  [
    ("flow-corpus", "e5f5914e6ae358c41a8a5cbeac5fb88d");
    ("train-alg1", "ecb7db05b6361f28714a3c8b3d97ef2b");
    ("dco-alg2", "6bec4f2fa95bcd89b0674b0a75376c01");
    ("serve-predict", "b9bb316eff11f49fa97684cb9560f7bc");
  ]

let smoke =
  [
    ("flow-corpus", "ff64c0340a3fa185c4f634006c563bea");
    ("train-alg1", "7eaa1d2a57c33aee92ec73fd1b6ccfcc");
    ("dco-alg2", "1d1483614794c00b50ed2657e28fc884");
    ("serve-predict", "afa3d116cc9c2136301ff7827e972781");
  ]
