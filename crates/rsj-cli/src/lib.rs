//! # rsj-cli — command-line reservation planner
//!
//! A small front-end over the `rsj-*` crates. Four commands, all driven by
//! JSON configurations (see `PlanConfig` etc.) or flags:
//!
//! * `rsj plan` — compute a request ladder for a distribution + cost model
//!   (through the `Planner` facade);
//! * `rsj evaluate` — score an explicit sequence;
//! * `rsj fit` — fit a LogNormal to a runtime-trace CSV;
//! * `rsj simulate` — run the batch-queue simulator and fit the
//!   wait-vs-request curve;
//! * `rsj serve` — run the `rsj-serve` planning daemon in the foreground;
//! * `rsj request` — one-shot client for a running daemon.
//!
//! The library half exposes every command as a pure function returning its
//! output text, so the whole CLI is unit-testable without spawning
//! processes.

#![warn(missing_docs)]

pub(crate) mod commands;
pub(crate) mod config;
pub(crate) mod serve_cmd;

pub use commands::{run_evaluate, run_fit, run_plan, run_risk, run_simulate};
pub use serve_cmd::{
    run_request, run_serve, run_trace_export, RequestAction, RequestOptions, ServeOptions,
    TraceExportOptions,
};

/// Top-level usage text.
pub const USAGE: &str = "\
rsj — reservation strategies for stochastic jobs (IPDPS 2019)

USAGE:
    rsj plan     --config <plan.json>     compute a request ladder
                 [--explain-solver]       also report which DP path solved it
                                          (monotone fast path vs exact O(n²))
                                          and whether the eval table was warm
    rsj risk     --config <plan.json>     cost quantiles / attempt counts of the plan
    rsj evaluate --config <eval.json>     score an explicit sequence
    rsj fit      --csv <traces.csv>       fit a LogNormal per application
    rsj simulate --config <sim.json>      simulate a batch queue (Figure 2)
    rsj serve    [--addr host:port]       run the planning server (default
                                          127.0.0.1:7077; port 0 = auto) with
                                          [--workers <n>] handler threads, an
                                          LRU plan cache of [--cache <n>] entries
                                          and an admission queue of [--queue <n>]
                                          requests (shedding between
                                          [--queue-high <n>] and [--queue-low <n>]).
                                          [--journal-dir <dir>] makes solved plans
                                          durable (journal + snapshots; a restart
                                          on the same dir warm-fills the cache),
                                          compacting every [--snapshot-every <n>]
                                          appends (default 64).
                                          [--trace-buffer <n>] retains the last n
                                          request timelines for the trace op;
                                          [--slow-ms <n>] warns (with a stage
                                          breakdown) on requests slower than n ms
    rsj request  --addr host:port         one-shot client for a running server:
                 (--config <plan.json> | --ping | --metrics | --health |
                  --ready | --shutdown)
                 [--deadline-ms <n>]      shed server-side once the deadline lapses
                 [--retries <n>]          retry transient failures with backoff
                 [--trace]                print the server-side stage timeline
    rsj trace export --addr host:port     export recent server timelines as
                 --out <trace.json>       Chrome-trace JSON (Perfetto-loadable)
                 [--last <n>]             at most n timelines (default 32)
                 [--min-ms <x>]           only timelines at least x ms long

Every command also accepts:
    --json                  machine-readable output
    --log-level <level>     stderr verbosity: error|warn|info|debug|trace|off
                            (default warn; `RSJ_LOG` is honoured too)
    --metrics-out <path>    export solver/simulator metrics after the run
                            (Prometheus text, or JSON when <path> ends in .json)
    --threads <n>           worker threads for solvers and batch simulation
                            (default: the `RSJ_THREADS` env var, else all
                            hardware threads; must be >= 1). Results are
                            bit-for-bit identical at any thread count.

Configuration schemas are documented in the rsj-cli crate docs; a minimal
plan.json:

    {
      \"distribution\": { \"family\": \"log_normal\", \"mu\": 3.0, \"sigma\": 0.5 },
      \"cost\": { \"alpha\": 1.0, \"beta\": 0.0, \"gamma\": 0.0 },
      \"heuristic\": { \"kind\": \"brute_force\", \"grid\": 2000, \"samples\": 1000 }
    }
";
