//! Seeded inputs: the scaled year and the calibrated tsubame2/tsubame3
//! logs, written into a per-run directory inside the checkout.

use std::path::{Path, PathBuf};

use failsim::{ScenarioBuilder, Simulator, SystemModel};
use failtypes::FailureLog;

use crate::Args;

/// Root of everything a run writes, relative to the checkout.
pub const WORK_ROOT: &str = ".bench_work";

/// The run's scratch directory; removed by [`WorkDir::finish`].
pub struct WorkDir {
    pub dir: PathBuf,
    /// Where spans and the host-stamped result of a traced run are kept.
    pub results: PathBuf,
}

impl WorkDir {
    pub fn create(args: &Args) -> Result<WorkDir, String> {
        let root = Path::new(WORK_ROOT);
        let dir = root.join(format!(
            "{}-{}-{}",
            args.workload,
            args.seed,
            std::process::id()
        ));
        let results = root.join("results");
        for d in [&dir, &results] {
            std::fs::create_dir_all(d).map_err(|e| format!("creating {}: {e}", d.display()))?;
        }
        let dir = dir
            .canonicalize()
            .map_err(|e| format!("resolving {}: {e}", dir.display()))?;
        Ok(WorkDir { dir, results })
    }

    /// A path inside the run directory, as the UTF-8 string the query
    /// layer takes.
    pub fn file(&self, name: &str) -> String {
        self.dir
            .join(name)
            .to_str()
            .expect("work paths are UTF-8")
            .to_string()
    }

    pub fn finish(&self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The scaled year: 1408 nodes x 4 GPUs, system MTBF 0.08 h, 365 days
/// (~109.5k records, ~7 MB as text).
pub fn year_log(seed: u64) -> Result<FailureLog, String> {
    let model = ScenarioBuilder::new("bench-scale")
        .nodes(1408)
        .gpus_per_node(4)
        .system_mtbf_hours(0.08)
        .window_days(365)
        .build()
        .ok_or("scaled scenario parameters are invalid")?;
    Simulator::new(model, seed)
        .generate()
        .map_err(|e| e.to_string())
}

/// A calibrated system's log (`tsubame2` or `tsubame3`).
pub fn model_log(name: &str, seed: u64) -> Result<FailureLog, String> {
    let model = match name {
        "tsubame2" => SystemModel::tsubame2(),
        _ => SystemModel::tsubame3(),
    };
    Simulator::new(model, seed)
        .generate()
        .map_err(|e| e.to_string())
}

/// Writes `log` to `path` (gzip when the name ends in `.gz`).
pub fn save(path: &str, log: &FailureLog) -> Result<(), String> {
    faillog::save(path, log).map_err(|e| format!("writing {path}: {e}"))
}

/// The year written as plain text, returning its path and record count.
pub fn write_year(work: &WorkDir, seed: u64) -> Result<(String, FailureLog), String> {
    let log = year_log(seed)?;
    let path = work.file("year.fslog");
    save(&path, &log)?;
    Ok((path, log))
}
