//! `compare`: two ledger documents, judged by the bounds in
//! `BENCHMARK.json`.

use crate::json::{as_str, fields, get, numbers, Json};
use crate::spec::Spec;
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The median is no worse than the baseline's by more than the bound.
    Unchanged,
    /// The median is worse by more than the bound.
    Regressed,
    /// The run-to-run spread exceeds the bound, so the runs cannot tell.
    Unresolved,
}

impl Verdict {
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// Judges candidate runs `b` against baseline runs `a` of one metric on
/// one workload. Returns the verdict, the share by which the median got
/// worse (negative: better) and the wider of the two spreads.
#[must_use]
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (Verdict, f64, f64) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let widest = spread(a).unwrap_or(0.0).max(spread(b).unwrap_or(0.0));
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let every_run_better = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
    let every_run_worse = b.iter().all(|&x| a.iter().all(|&y| better(y, x)));
    let verdict = if widest > bound {
        if every_run_better {
            Verdict::Unchanged
        } else if every_run_worse && worse_by > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    };
    (verdict, worse_by, widest)
}

fn host_field<'a>(doc: &'a Json, key: &str) -> Option<&'a Json> {
    get(doc, "host").and_then(|h| get(h, key))
}

/// One comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub verdict: Verdict,
    pub text: String,
}

/// Compares candidate document `b` against baseline `a`.
///
/// # Errors
///
/// Refuses documents measured on different hosts or core counts: their
/// numbers do not compare.
pub fn compare(spec: &Spec, a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    for key in ["cpu_model", "cores"] {
        let (va, vb) = (host_field(a, key), host_field(b, key));
        if va.is_none() || va != vb {
            return Err(format!(
                "host {key} differs ({va:?} vs {vb:?}): results from different hosts do not compare"
            ));
        }
    }
    let mut rows = Vec::new();
    let workloads_a = get(a, "workloads").ok_or("baseline has no workloads")?;
    let workloads_b = get(b, "workloads").ok_or("candidate has no workloads")?;
    for (workload, wa) in fields(workloads_a) {
        let Some(wb) = get(workloads_b, workload) else {
            continue;
        };
        for m in &spec.end_to_end {
            let values = |w: &Json| numbers(get(w, "end_to_end").and_then(|e| get(e, &m.name)));
            let (va, vb) = (values(wa), values(wb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = m.bound.unwrap_or(0.0);
            let (mut verdict, worse_by, widest) = judge(&va, &vb, m.higher_is_better, bound);
            // Set-up is short and measured three times a run, so its spread
            // is wide by nature; like the driver, judge it by its median.
            if m.name == "setup_s" && verdict == Verdict::Unresolved {
                verdict = if worse_by > bound {
                    Verdict::Regressed
                } else {
                    Verdict::Unchanged
                };
            }
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name.clone(),
                verdict,
                text: format!(
                    "median {:.6} -> {:.6} {} ({:+.1} % worse, bound {:.0} %, spread {:.1} %, {} vs {} runs)",
                    median(&va),
                    median(&vb),
                    m.unit,
                    worse_by * 100.0,
                    bound * 100.0,
                    widest * 100.0,
                    va.len(),
                    vb.len()
                ),
            });
        }
        // fail_share: any increase is a regression.
        let share = |w: &Json| {
            let failed: f64 = numbers(get(w, "failed")).iter().sum();
            let attempted: f64 = numbers(get(w, "attempted")).iter().sum();
            failed / attempted.max(1.0)
        };
        let wrong = |w: &Json| matches!(get(w, "correct"), Some(Json::Bool(false)));
        let (sa, sb) = (share(wa), share(wb));
        rows.push(Row {
            workload: workload.clone(),
            metric: "fail_share".to_string(),
            verdict: if sb > sa || (wrong(wb) && !wrong(wa)) {
                Verdict::Regressed
            } else {
                Verdict::Unchanged
            },
            text: format!(
                "{sa:.6} -> {sb:.6}{}",
                if wrong(wb) {
                    ", candidate outputs incorrect"
                } else {
                    ""
                }
            ),
        });
    }
    if rows.is_empty() {
        return Err("the documents share no workload".to_string());
    }
    Ok(rows)
}

/// Prints the rows; `true` when none regressed or stayed unresolved.
#[must_use]
pub fn report(rows: &[Row], a: &Json, b: &Json) -> bool {
    let commit = |d: &Json| {
        host_field(d, "commit")
            .and_then(as_str)
            .unwrap_or("unknown")
            .to_string()
    };
    println!("baseline {} vs candidate {}", commit(a), commit(b));
    for row in rows {
        println!(
            "{:<11} {:<15} {:<17} {}",
            row.verdict.label(),
            row.workload,
            row.metric,
            row.text
        );
    }
    let bad = rows
        .iter()
        .filter(|r| r.verdict != Verdict::Unchanged)
        .count();
    println!("{} rows, {bad} regressed or unresolved", rows.len());
    bad == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Lower is better, 10 % bound.
        let slower = [115.0, 116.0, 114.0, 115.5, 114.5];
        assert_eq!(judge(&steady, &slower, false, 0.10).0, Verdict::Regressed);
        let slightly = [104.0, 105.0, 103.0, 104.5, 103.5];
        assert_eq!(judge(&steady, &slightly, false, 0.10).0, Verdict::Unchanged);
        let faster = [80.0, 81.0, 79.0, 80.5, 79.5];
        assert_eq!(judge(&steady, &faster, false, 0.10).0, Verdict::Unchanged);
        // Higher is better: the same numbers flip.
        assert_eq!(judge(&steady, &faster, true, 0.10).0, Verdict::Regressed);
        assert_eq!(judge(&steady, &slower, true, 0.10).0, Verdict::Unchanged);

        // A spread wider than the bound cannot resolve an overlap ...
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(judge(&steady, &noisy, false, 0.10).0, Verdict::Unresolved);
        // ... unless every run is better than every baseline run ...
        let noisy_fast = [40.0, 50.0, 60.0, 45.0, 55.0];
        assert_eq!(
            judge(&steady, &noisy_fast, false, 0.10).0,
            Verdict::Unchanged
        );
        // ... or every run is worse and the median is beyond the bound.
        let noisy_slow = [140.0, 180.0, 220.0, 160.0, 200.0];
        assert_eq!(
            judge(&steady, &noisy_slow, false, 0.10).0,
            Verdict::Regressed
        );

        let (_, worse_by, _) = judge(&[100.0], &[125.0], false, 0.10);
        assert!((worse_by - 0.25).abs() < 1e-12);
    }

    #[test]
    fn different_hosts_do_not_compare() {
        let doc = |cores: u64| {
            crate::json::parse(&format!(
                "{{\"host\":{{\"cpu_model\":\"x\",\"cores\":{cores}}},\"workloads\":{{\"w\":{{\"end_to_end\":{{\"op_p50_ms\":[1.0,1.01],\"setup_s\":[0.5,1.0,2.0]}},\"attempted\":[10],\"failed\":[0],\"correct\":true}}}}}}"
            ))
            .unwrap()
        };
        let spec = Spec::load();
        assert!(compare(&spec, &doc(2), &doc(4)).is_err());
        let rows = compare(&spec, &doc(2), &doc(2)).unwrap();
        assert!(rows.iter().all(|r| r.verdict == Verdict::Unchanged));
        assert!(rows.iter().any(|r| r.metric == "op_p50_ms"));
        assert!(rows.iter().any(|r| r.metric == "fail_share"));
        // setup_s is as wide as it gets here and still judged by its median.
        assert!(rows.iter().any(|r| r.metric == "setup_s"));
    }
}
