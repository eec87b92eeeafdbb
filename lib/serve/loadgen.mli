(** Deterministic load generator for lacrd — the client half of
    [make smoke-serve] and the serving soak test.

    Opens [connections] concurrent connections and replays [requests]
    plan requests whose circuit mix is a pure function of [seed]
    (round-robin across connections, strictly sequential per
    connection).  Collects cache hit/miss counts and warm/cold
    latency, asserts that every response's ["result"] subtree for a
    circuit renders byte-identically (warm ≡ cold), optionally
    verifies those renderings against fresh in-process single-shot
    plans ([verify]), and finally pulls the daemon's [metrics]
    aggregate, validates it with the Export schema validators, and —
    on a clean run — checks it equals the sum of the per-request
    metric echoes. *)

type options = {
  endpoint : Protocol.endpoint;
  connections : int;
  requests : int;
  seed : int;
  mix : string list;  (** circuit names; duplicates weight the draw *)
  verify : bool;  (** compare results against in-process plans *)
  second_iteration : bool;  (** forwarded with every plan request *)
  wait_s : float;  (** connect-retry window (daemon startup race) *)
  shutdown_after : bool;  (** send [shutdown] after the final metrics pull *)
}

type summary = {
  sent : int;
  ok : int;
  failed : (string * int) list;  (** error-code (or client-side reason) counts *)
  cache_hits : int;
  cache_misses : int;
  cold_us : int * int;  (** (total latency, count) over cache misses *)
  warm_us : int * int;  (** (total latency, count) over cache hits *)
  verified_circuits : int;
  result_mismatches : int;
  metrics_counters : int;
  metrics_mismatches : int;
}

val run : options -> (summary, string) result
(** [Error] only for an unusable configuration; per-request failures
    land in {!summary.failed}. *)

val passed : summary -> bool
(** No result or metrics mismatches, and no failures beyond the
    explicitly load-related codes ([overloaded], [shutting_down]). *)

val render_summary : summary -> string
(** Multi-line human summary ending in [PASS] or [FAIL]. *)
