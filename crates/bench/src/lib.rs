//! Benchmark harness for the Tiger reproduction.
//!
//! Every paper artifact is a job in one registry, [`fleet::JOBS`], run by
//! the `fleet` binary (see `DESIGN.md` §4 for the index). Each job is
//! named after its golden in `results/`:
//!
//! | job | artifact |
//! |---|---|
//! | `fig8_unfailed` | Figure 8: loads with no cubs failed |
//! | `fig9_failed` | Figure 9: loads with one cub failed |
//! | `fig10_startup` | Figure 10: stream startup latency vs schedule load |
//! | `loss_rates` | §5 text: delivered-block loss rates |
//! | `reconfig` | §5 text: power-cut reconfiguration window |
//! | `scalability` | §3.3: centralized vs distributed control traffic |
//! | `capacity` | §5 text: capacity derivation (10.75 streams/disk → 602), measured per seed |
//! | `hotspot` | §2.2: striping absorbs single-file demand spikes |
//! | `hotspot_plan` | §2.2 again, demand from `examples/workloads/zipf-hotspot.plan` |
//! | `ablation_decluster` | §2.3: decluster-factor tradeoff |
//! | `ablation_forwarding` | §4.1.1: single vs double forwarding |
//! | `ablation_lead` | §4.1.1: viewer-state lead sensitivity |
//! | `ablation_fragmentation` | §3.2: network-schedule fragmentation |
//! | `ablation_mbr` | §4.2: two-phase insertion latency hiding (call- and message-level) |
//! | `ablation_deadman` | §5: loss window vs deadman timeout |
//! | `ablation_admission` | §5: the disabled admission-control code, re-enabled |
//! | `ablation_coded` | coded vs mirrored redundancy under the flash crowd, equal storage (docs/CODED.md) |
//! | `chaos` | fault-injection campaigns (tiger-faults) checked against the Tiger invariants |
//! | `workloads` | canonical tiger-workgen demand plans: blocking / conflict / churn under skew, surges, VCR churn, diurnal swing |
//! | `workload_flashcrowd_blocking` | the `workloads` sweep narrowed to the flash-crowd plan and its blocking curve |
//!
//! The other binaries are tools: `trace_timeline` renders trace dumps,
//! `bench_compare` / `bench_merge` maintain the `BENCH_*.json`
//! trajectory. Micro-benches for the schedule operations themselves live
//! in `benches/` (the §5 premise that schedule management cost is
//! negligible next to data movement), driven by the in-tree [`runner`] so
//! the workspace needs no registry crates and emits machine-readable JSON.

pub mod chaos;
pub mod coded;
pub mod fleet;
pub mod hotspot;
pub mod runner;
pub mod workloads;
