//! Spans recorded by the benchmark's own code around its calls into each
//! layer.  Kept in memory during the traced pass and written as JSON lines
//! when the run ends; nothing here reaches inside the program.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;

use crate::json::Json;

/// "No parent" / "no job".
pub const NONE: u64 = 0;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// 1-based, unique within a trace.
    pub id: u64,
    /// Id of the enclosing span, or [`NONE`].
    pub parent: u64,
    /// 1-based job (round or served job) the span belongs to, or [`NONE`].
    pub job: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span in the kernel's own unit (arcs, elements,
    /// cells, calls); 0 where no unit applies.
    pub units: u64,
    /// A second count where one unit is not enough: the BFS levels of a
    /// `graph.bfs_par` / `twin.bfs_seq` span; 0 elsewhere.
    pub aux: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
pub struct Tracer {
    pub spans: Vec<Span>,
}

impl Tracer {
    /// Record a finished span and return its id (to parent later spans).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        parent: u64,
        job: u64,
        layer: &'static str,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        units: u64,
        aux: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            job,
            layer,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            units,
            aux,
        });
        id
    }

    /// Reserve an id for a span whose end is not known yet (a round, a
    /// job); finish it with [`close`](Self::close).
    pub fn open(
        &mut self,
        parent: u64,
        job: u64,
        layer: &'static str,
        name: &'static str,
        start_ns: u64,
    ) -> u64 {
        self.record(parent, job, layer, name, start_ns, start_ns, 0, 0)
    }

    pub fn close(&mut self, id: u64, end_ns: u64) {
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns.max(span.start_ns);
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Json::obj([
                ("id", Json::Num(s.id as f64)),
                ("parent", Json::Num(s.parent as f64)),
                ("job", Json::Num(s.job as f64)),
                ("layer", Json::Str(s.layer.into())),
                ("name", Json::Str(s.name.into())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("units", Json::Num(s.units as f64)),
                ("aux", Json::Num(s.aux as f64)),
            ]);
            writeln!(out, "{}", line.encode())?;
        }
        out.flush()
    }
}

/// The part of a span the summary needs; what `trace` reads back from a file.
#[derive(Debug, Clone, PartialEq)]
pub struct Interval {
    pub id: u64,
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Self time of every span, in input order: its duration minus the part of
/// that interval its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Interval]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != NONE {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            let mut cursor = s.start_ns;
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            for (start, end) in kids {
                let start = start.clamp(cursor, s.end_ns);
                let end = end.clamp(cursor, s.end_ns);
                covered += end - start;
                cursor = end;
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per `layer name` row of a trace file: span count, total and self time.
/// This is the reader behind the `trace` subcommand.
pub fn summarize(text: &str) -> Result<Vec<(String, u64, u64, u64)>, String> {
    let mut intervals = Vec::new();
    let mut labels = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let num = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .map(|f| f as u64)
                .ok_or_else(|| format!("line {}: no number \"{key}\"", n + 1))
        };
        intervals.push(Interval {
            id: num("id")?,
            parent: num("parent")?,
            start_ns: num("start_ns")?,
            end_ns: num("end_ns")?,
        });
        let text_of = |key: &str| v.get(key).and_then(Json::as_str).unwrap_or("?");
        labels.push(format!("{:<8} {}", text_of("layer"), text_of("name")));
    }
    let mut rows: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for ((label, span), own) in labels
        .into_iter()
        .zip(&intervals)
        .zip(self_times(&intervals))
    {
        let row = rows.entry(label).or_default();
        row.0 += 1;
        row.1 += span.end_ns - span.start_ns;
        row.2 += own;
    }
    Ok(rows
        .into_iter()
        .map(|(k, (n, total, own))| (k, n, total, own))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Interval {
        Interval {
            id,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            iv(1, NONE, 0, 100),
            iv(2, 1, 10, 30),
            // Overlaps span 2 by ten: the union covers 10..50.
            iv(3, 1, 20, 50),
            iv(4, 1, 60, 70),
            // A grandchild reduces its parent's self time, not the root's.
            iv(5, 3, 25, 45),
            // A child that sticks out is clipped to its parent.
            iv(6, 4, 65, 90),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 5, 20, 25]);
    }

    #[test]
    fn jsonl_round_trips_through_the_summary() {
        let mut t = Tracer::default();
        let round = t.open(NONE, 1, "harness", "round", 0);
        t.record(round, 1, "graph", "graph.bfs_par", 100, 400, 64, 3);
        t.record(round, 1, "twin", "twin.bfs_seq", 400, 600, 64, 3);
        t.close(round, 1000);
        let path = std::env::temp_dir().join(format!(
            "lopram-benchmark-trace-{}.jsonl",
            std::process::id()
        ));
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(text.lines().count(), 3);
        let rows = summarize(&text).unwrap();
        assert_eq!(
            rows,
            vec![
                ("graph    graph.bfs_par".to_string(), 1, 300, 300),
                ("harness  round".to_string(), 1, 1000, 500),
                ("twin     twin.bfs_seq".to_string(), 1, 200, 200),
            ]
        );
        assert_eq!(t.named("graph.bfs_par").map(Span::ns).sum::<u64>(), 300);
    }
}
