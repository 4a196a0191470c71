(** Process lifecycle: one shared shutdown path for the batch session and
    the network server.

    A signal (SIGINT/SIGTERM) or a programmatic request moves the process
    through up to two phases:

    - {e draining}: stop taking new work (the session stops submitting
      statements, the server stops accepting connections and admitting
      statements) but let in-flight statements finish;
    - {e aborting}: in-flight statements are cancelled too — the executor's
      batch-boundary poll ({!Exec_ctx.check}) observes the abort flag and
      raises [Avq_error.Error Cancelled], so every worker unwinds through
      its normal cleanup path (temps dropped, futures resolved).

    The signal handler itself only flips atomics and pokes a self-pipe
    (async-signal-safe by construction: no locks, no allocation-heavy
    work); all real shutdown work — flushing trace/metrics sinks, removing
    temps, closing sockets — happens in the owning control flow, via the
    {!at_shutdown} hooks it registered. *)

type mode =
  | Abort_on_signal
      (** first signal aborts in-flight work immediately (batch session:
          Ctrl-C means "stop now, but cleanly") *)
  | Drain_then_abort
      (** first signal drains gracefully, a second one aborts (server:
          SIGTERM finishes in-flight statements, SIGTERM×2 cuts them) *)

val install : ?signals:int list -> mode -> unit
(** Install handlers for [signals] (default SIGINT and SIGTERM).
    Idempotent; a second call just switches the mode. *)

val draining : unit -> bool
(** Shutdown has begun: no new work should be admitted. *)

val aborting : unit -> bool
(** In-flight statements must unwind at their next poll point. *)

val engaged : unit -> bool
(** Whether executors should poll for lifecycle aborts at batch
    boundaries: handlers are installed or a shutdown was requested
    programmatically.  Kept cheap (two atomic reads) — it runs on the
    statement hot path. *)

val request_drain : unit -> unit
val request_abort : unit -> unit
(** Programmatic equivalents of the signals (tests, server [stop]). *)

val exit_code : unit -> int
(** Conventional exit status: [128 + signal] if a signal triggered the
    shutdown, [0] otherwise. *)

val wake_fd : unit -> Unix.file_descr
(** Read end of the self-pipe.  Select/poll loops include it so a signal
    interrupts their wait; {!drain_wake} empties it. *)

val drain_wake : unit -> unit
(** Consume any pending wake bytes (non-blocking). *)

val at_shutdown : (unit -> unit) -> unit
(** Register a cleanup hook (flush a sink, remove temps...).  Hooks run
    LIFO, once, when the owning control flow calls {!run_hooks}; a hook
    that raises is reported on stderr and does not stop the others. *)

val run_hooks : unit -> unit
(** Run (and clear) the registered hooks.  Idempotent. *)

val reset : unit -> unit
(** Back to [Running] with no hooks and no recorded signal (tests).
    Installed handlers stay installed. *)
