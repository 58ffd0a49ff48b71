//! Command line: `spine [--workload NAME]… [--seed N] [--seconds S]
//! [--trace 0|1] [--scale F] [--trace-out P] [--out P] [--set k=v]…`.

use grt_ids::DatabaseOptions;
use std::path::PathBuf;
use std::time::Duration;

/// Parsed command line.
pub struct Args {
    /// Workloads to run, in order (empty on the command line = all).
    pub workloads: Vec<String>,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// `false`: end-to-end metrics, no spans. `true`: the traced run
    /// (spans, peel, direct measurements) and the per-layer metrics.
    pub trace: bool,
    /// Multiplies every workload's row count, pool of queries and
    /// direct-measurement iteration count.
    pub scale: f64,
    /// Where the traced run writes its spans as JSON lines.
    pub trace_out: Option<PathBuf>,
    /// Where one JSON row per workload is appended.
    pub out: Option<PathBuf>,
    /// `--set key=value` overrides, applied over the defaults.
    pub sets: Vec<(String, String)>,
}

pub const USAGE: &str = "usage: spine [--workload NAME]... [--seed N] [--seconds S] \
[--trace 0|1] [--scale F] [--trace-out PATH] [--out PATH] [--set key=value]...";

impl Args {
    pub fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workloads: Vec::new(),
            seed: 1,
            seconds: 20.0,
            trace: false,
            scale: 1.0,
            trace_out: None,
            out: None,
            sets: Vec::new(),
        };
        let mut argv = argv;
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workloads.push(value()?),
                "--seed" => args.seed = num(&flag, &value()?)?,
                "--seconds" => args.seconds = num(&flag, &value()?)?,
                "--scale" => args.scale = num(&flag, &value()?)?,
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other}")),
                    }
                }
                "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
                "--out" => args.out = Some(PathBuf::from(value()?)),
                "--set" => {
                    let kv = value()?;
                    let (k, v) = kv
                        .split_once('=')
                        .ok_or_else(|| format!("--set takes key=value, got {kv}"))?;
                    args.sets.push((k.to_string(), v.to_string()));
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if !(args.seconds > 0.0 && args.seconds <= 600.0) {
            return Err(format!("--seconds out of range: {}", args.seconds));
        }
        if !(args.scale > 0.0 && args.scale <= 64.0) {
            return Err(format!("--scale out of range: {}", args.scale));
        }
        Ok(args)
    }
}

fn num<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: cannot parse {text:?}"))
}

/// Applies one `--set key=value` to the options every workload starts
/// from. Durations are milliseconds; `checkpoint_interval=0` means none.
/// Keys are the field names of `DatabaseOptions` and `SbspaceOptions`.
pub fn apply_set(opts: &mut DatabaseOptions, key: &str, value: &str) -> Result<(), String> {
    let ms = |v: &str| num::<u64>(key, v).map(Duration::from_millis);
    match key {
        "pool_pages" => opts.space.pool_pages = num(key, value)?,
        "pool_shards" => opts.space.pool_shards = num(key, value)?,
        "lock_timeout" => opts.space.lock_timeout = ms(value)?,
        "group_commit" => opts.space.group_commit = num(key, value)?,
        "commit_batch_size" => opts.space.commit_batch_size = num(key, value)?,
        "prefetch_workers" => opts.space.prefetch_workers = num(key, value)?,
        "prefetch_depth" => opts.space.prefetch_depth = num(key, value)?,
        "wal_segment_bytes" => opts.wal_segment_bytes = num(key, value)?,
        "checkpoint_interval" => {
            let d = ms(value)?;
            opts.checkpoint_interval = (!d.is_zero()).then_some(d);
        }
        "deadlock_retries" => opts.deadlock_retries = num(key, value)?,
        "retry_backoff" => opts.retry_backoff = ms(value)?,
        "scan_workers" => opts.scan_workers = num(key, value)?,
        "plan_cache_size" => opts.plan_cache_size = num(key, value)?,
        "scan_batch_rows" => opts.scan_batch_rows = num(key, value)?,
        other => return Err(format!("--set: unknown option {other}")),
    }
    Ok(())
}

/// The `DatabaseOptions` fields that `Database::with_space` cannot
/// carry: a file-backed workload runs them at their defaults.
pub const ENGINE_ONLY_KEYS: [&str; 5] = [
    "deadlock_retries",
    "retry_backoff",
    "scan_workers",
    "plan_cache_size",
    "scan_batch_rows",
];
