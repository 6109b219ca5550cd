//! One module per paper figure/table; each exposes `run(Scale)` printing
//! the paper-style rows and persisting JSON under `results/`. The five
//! seeded net experiments take `run(Scale, seed)` instead (`net_explore`
//! also a PCT budget) and state their canonical seed as `SEED`.

pub mod ablations;
pub mod analysis_sec3;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod loss_sweep;
pub mod net_attacks;
pub mod net_chaos;
pub mod net_explore;
pub mod net_scale;
pub mod net_swarm;
pub mod net_telemetry;
pub mod overhead;
pub mod streaming;
pub mod table2;
pub mod trace;
