//! The four workloads; each module's doc says why it was chosen and which
//! layers it loads.

pub mod conformance_fuzz;
pub mod defense_mix;
pub mod obr_cascade;
pub mod scan_probe;
