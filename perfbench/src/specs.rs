//! Workload specs: each workload starts from a bundled scenario file, pins the thread
//! counts, takes its seed from the command line, and is written back out as a spec file
//! so the library loads it through its own entry points (`Scenario::load`,
//! `Fleet::load`).

use ribbon::fleet::FleetSpec;
use ribbon::scenario::ScenarioSpec;
use std::path::{Path, PathBuf};

/// Worker threads for every parallel layer: the planner's acquisition scan, batch
/// evaluation, and the fleet's shard workers. Results are bit-identical at any count,
/// so the pin only fixes timing.
pub const THREADS: usize = 2;

/// Where derived spec files are written, relative to the checkout root.
const WORK_DIR: &str = "perfbench/work";

/// Bundled scenarios the workloads start from, relative to the checkout root.
const SCENARIO_DIR: &str = "scenarios";

fn read(name: &str) -> Result<String, String> {
    let path = Path::new(SCENARIO_DIR).join(name);
    std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))
}

/// Re-roots a catalog path written relative to `scenarios/` so it resolves from the
/// work directory instead.
fn reroot_catalog(catalog: &Option<String>) -> Option<String> {
    catalog.as_ref().map(|c| {
        if Path::new(c).is_absolute() {
            c.clone()
        } else {
            format!("../../{SCENARIO_DIR}/{c}")
        }
    })
}

fn write(file: &str, text: &str) -> Result<String, String> {
    std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("creating {WORK_DIR}: {e}"))?;
    let path: PathBuf = Path::new(WORK_DIR).join(file);
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path.to_string_lossy().into_owned())
}

/// Loads a bundled single-model scenario, applies `edit`, pins the thread counts and the
/// seed, and writes it to the work directory. Returns the written path.
pub fn scenario(
    base: &str,
    out: &str,
    seed: u64,
    edit: impl FnOnce(&mut ScenarioSpec),
) -> Result<String, String> {
    let mut spec = ScenarioSpec::from_toml_str(&read(base)?).map_err(|e| e.to_string())?;
    spec.seed = seed;
    spec.catalog = reroot_catalog(&spec.catalog);
    spec.planner.scan_threads = Some(THREADS);
    spec.evaluator.threads = Some(THREADS);
    edit(&mut spec);
    write(out, &spec.to_toml_string())
}

/// Loads a bundled fleet, applies `edit`, pins the thread and shard counts and the seed,
/// and writes it to the work directory. Returns the written path.
pub fn fleet(
    base: &str,
    out: &str,
    seed: u64,
    edit: impl FnOnce(&mut FleetSpec),
) -> Result<String, String> {
    let mut spec = FleetSpec::from_toml_str(&read(base)?).map_err(|e| e.to_string())?;
    spec.seed = seed;
    spec.catalog = reroot_catalog(&spec.catalog);
    spec.threads = Some(THREADS);
    spec.shards = Some(THREADS);
    edit(&mut spec);
    write(out, &spec.to_toml_string())
}
