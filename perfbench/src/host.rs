//! The host and build every output is recorded on.

/// Core count from `available_parallelism`, with the `/proc/cpuinfo`
/// fallback for containers whose cgroup masks make the former fail.
pub fn cores() -> usize {
    match std::thread::available_parallelism() {
        Ok(n) => n.get(),
        Err(_) => std::fs::read_to_string("/proc/cpuinfo")
            .map(|s| {
                s.lines()
                    .filter(|l| l.starts_with("processor"))
                    .count()
                    .max(1)
            })
            .unwrap_or(1),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` in the working directory
/// (benchmark checkouts without git history report `none`).
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    std::fs::read_to_string(format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|_| {
            std::fs::read_to_string(".git/packed-refs").map(|packed| {
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split(' ').next())
                    .unwrap_or("unknown")
                    .to_string()
            })
        })
        .unwrap_or_else(|_| "unknown".into())
}

/// One-line JSON description of the host and build.
pub fn describe() -> String {
    format!(
        "{{\"cores\":{},\"cpu\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\"}}",
        cores(),
        cpu_model().replace('"', "'"),
        env!("PERFBENCH_RUSTC"),
        commit()
    )
}
