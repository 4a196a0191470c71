(** Typed error taxonomy shared by every layer of the engine.

    Storage raises these for injected or detected IO problems, the executor
    raises them for exceeded budgets, and the service layer catches them so
    one failed statement degrades to an error {e result} instead of taking a
    worker (or the whole pool) down.  The taxonomy deliberately lives below
    [storage] in the dependency order so a fault can be typed at the exact
    layer where IO is measured. *)

type io_op = Read | Write | Alloc

type t =
  | Io_fault of { op : io_op; file : int; page : int; attempts : int }
      (** A (possibly injected) IO failure.  [attempts] is the number of
          tries made, so [attempts > 1] means bounded retry was exhausted. *)
  | Corruption of { file : int; page : int; detail : string }
      (** Structural damage detected: a page checksum mismatch, a dangling
          RID, or a violated index invariant.  Never retried. *)
  | Resource_exceeded of { resource : string; limit : int; used : int }
      (** A hard, enforced budget (e.g. the per-query temp-spill quota) was
          exceeded. *)
  | Timeout of { limit_ms : float }  (** The statement deadline passed. *)
  | Cancelled  (** The statement's cancellation token was set. *)
  | Bad_statement of string
      (** The statement itself is at fault (type error mid-execution,
          unresolvable column, malformed input). *)
  | Unavailable of string
      (** The server is not taking this work right now (draining for
          shutdown, connection limit reached).  Unlike
          {!Resource_exceeded} — which rejects one over-budget statement —
          this says the whole endpoint is (temporarily) closed to new
          work; clients should back off or reconnect elsewhere. *)

exception Error of t

val error : t -> 'a
(** [error e] raises {!Error}[ e]. *)

val kind_label : t -> string
(** Stable lowercase tag for counters and structured log lines:
    ["io-fault"], ["corruption"], ["resource-exceeded"], ["timeout"],
    ["cancelled"], ["bad-statement"], ["unavailable"]. *)

val to_string : t -> string
(** One-line rendering: [kind=<kind> <field>=<value>...], machine-grepable. *)

val of_exn : exn -> t option
(** Map an exception onto the taxonomy where a sound mapping exists:
    [Error e] gives [Some e]; anything else gives [None].  Unknown
    exceptions are deliberately not swallowed — the caller decides. *)
