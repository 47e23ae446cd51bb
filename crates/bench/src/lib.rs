//! # `f1-bench` — Criterion benchmark harness
//!
//! Five bench targets regenerate and time the paper's artifacts:
//!
//! * `figures` — one benchmark per paper figure/table regeneration
//!   (Fig. 2b, 4, 5, 9, 11b, 12, 13b, 14b, 15b, 16c, Tables I–III).
//! * `model_kernels` — the analytic kernels (Eq. 4 evaluation, knee
//!   closed form, bound classification, heatsink sizing, Eq. 5 `a_max`).
//! * `simulators` — the discrete-event pipeline simulator and the
//!   flight-sim stop trial.
//! * `ablations` — design-choice ablations DESIGN.md calls out
//!   (exact vs linearized roofline, drag-free vs drag-aware stopping,
//!   serial vs parallel sweeps).
//! * `dse` — the design-space-exploration arms no end-to-end metric
//!   reproduces: the skyline algorithms on synthesized catalogs (cited
//!   by `pareto_min`'s dispatch threshold), a cold 5-objective query
//!   with a mounted battery and an 8-plan batch at 10⁵ candidates, and
//!   the two-tier simulation overhead. Recorded runs are in the
//!   repo-root `BENCH_dse.json`.
//!
//! Run with `cargo bench --workspace`. Absolute timings are
//! machine-dependent; the interesting output of the `figures` target is
//! that every artifact regenerates, with the same rows the paper reports
//! (printed by the `f1-experiments` binaries and checked by tests).
//!
//! Serving, durability and the other session-level timings (cold
//! passes, cache hits, small batches, delta repair, recovery) are not
//! measured here: the
//! benchmark of record is the standalone `perfbench/` package described
//! by the repo-root `BENCHMARK.json`, which checks every answer against
//! a cold oracle.
