//! The maintained-summary check, shared with the workspace's refresh
//! properties (`tests/refresh.rs` includes this file by path).

use smv_summary::Summary;

/// Does the maintained summary agree with `fresh`, a from-scratch
/// summary of the same document, on every path the document uses —
/// counts, value counts, distinct values, edge classes and fan-outs? The
/// maintained summary may also hold dead paths, append-only by design,
/// but only at count zero.
pub fn summaries_agree(maintained: &Summary, fresh: &Summary) -> Result<(), String> {
    let stats = |s: &Summary, n| {
        (
            s.count(n),
            s.value_count(n),
            s.distinct_values(n),
            s.is_strong_edge(n),
            s.is_one_to_one_edge(n),
            s.avg_fanout(n),
        )
    };
    for n in fresh.iter() {
        let path = fresh.path_string(n);
        let m = maintained
            .node_by_path(&path)
            .ok_or_else(|| format!("maintained summary lost path {path}"))?;
        if stats(maintained, m) != stats(fresh, n) {
            return Err(format!(
                "{path}: (count, values, distinct, strong, one-to-one, fan-out) \
                 maintained {:?}, from scratch {:?}",
                stats(maintained, m),
                stats(fresh, n)
            ));
        }
    }
    for n in maintained.iter() {
        let path = maintained.path_string(n);
        if maintained.count(n) != 0 && fresh.node_by_path(&path).is_none() {
            return Err(format!("dead path {path} at count {}", maintained.count(n)));
        }
    }
    Ok(())
}
