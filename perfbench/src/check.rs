//! Answer checks, run after the timed window against in-process solves of
//! the same inputs:
//!
//! - `throughput`, `peak_c`, `m` and `feasible` are bit-identical to
//!   `mosc_core::solve`, and a requested schedule is the same text;
//! - a hit equals the miss that primed it (byte-identical on `hit`);
//! - every `solve_batch` variant equals its sequential solve;
//! - a feasible answer has `peak_c <= t_max_c + FEASIBILITY_EPS`.
//!
//! The in-process solve runs with `threads: 1`, the sequential reference:
//! the solvers promise bit-identical results for any thread count, so the
//! check also holds the daemon's fanned-out solves to that promise.

use crate::drive::{Answer, Sample};
use crate::gen::{Inputs, Kind, Req};
use mosc_analyze::json::Value;
use mosc_core::{SolveOptions, SolverKind, FEASIBILITY_EPS};
use mosc_serve::cache::fnv1a;
use mosc_serve::proto::canonical_json;
use mosc_serve::{Request, Response, SolveResponse};
use std::collections::HashMap;

/// What the checks found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: usize,
    /// The first few failure reasons.
    pub reasons: Vec<String>,
    /// Per checked sample, in order: whether its answer was right.
    pub ok: Vec<bool>,
}

impl Verdict {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(why);
        }
    }
}

/// The answer an in-process solve gives.
#[derive(Debug, Clone)]
struct Reference {
    solver: SolverKind,
    throughput: f64,
    peak_c: f64,
    feasible: bool,
    m: usize,
    schedule: String,
    t_max_c: f64,
}

/// One solve a response must match.
struct Job<'a> {
    kind: SolverKind,
    platform: &'a Value,
    options: SolveOptions,
}

/// The solver's view of a job: what `mosc_core::solve` hands the solver.
/// Options the solver never reads (the salt of a batch variant) are left
/// out, so equal keys are equal solves.
fn job_key(job: &Job<'_>) -> String {
    let serial = SolveOptions { threads: 1, deadline: None, ..job.options };
    let view = match job.kind {
        SolverKind::Ao => format!("{:?}", serial.ao_options()),
        SolverKind::Pco => format!("{:?}", serial.pco_options()),
        _ => format!("{serial:?}"),
    };
    format!("{}\0{}\0{view}", job.kind.id(), canonical_json(job.platform))
}

fn solve_reference(job: &Job<'_>) -> Result<Reference, String> {
    let doc = Value::Object(vec![("platform".to_owned(), job.platform.clone())]);
    let platform = mosc_analyze::platform_from_doc(&doc).map_err(|e| e.to_string())?;
    let options = SolveOptions { threads: 1, deadline: None, ..job.options };
    let report = mosc_core::solve(job.kind, &platform, &options).map_err(|e| e.to_string())?;
    Ok(Reference {
        solver: job.kind,
        throughput: report.solution.throughput,
        peak_c: report.solution.peak_c(&platform),
        feasible: report.solution.feasible,
        m: report.solution.m,
        schedule: mosc_sched::text::to_text(&report.solution.schedule),
        t_max_c: platform.t_max_c(),
    })
}

/// The solves a request implies, one per variant.
fn jobs(req: &Req) -> Vec<Job<'_>> {
    match &req.request {
        Request::Solve(s) => vec![Job { kind: s.kind, platform: &s.platform, options: s.options }],
        Request::SolveBatch(b) => b
            .variants
            .iter()
            .map(|v| Job { kind: v.kind, platform: &b.platform, options: v.options })
            .collect(),
        _ => Vec::new(),
    }
}

/// Solves every distinct job once, on two threads (the daemon has stopped
/// by now, so the checks have the machine to themselves).
fn references<'a>(
    reqs: impl Iterator<Item = &'a Req>,
) -> HashMap<String, Result<Reference, String>> {
    let mut todo: HashMap<String, Job<'a>> = HashMap::new();
    for req in reqs {
        for job in jobs(req) {
            todo.entry(job_key(&job)).or_insert(job);
        }
    }
    let todo: Vec<(String, Job<'a>)> = todo.into_iter().collect();
    let workers = 2;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let todo = &todo;
                scope.spawn(move || {
                    todo.iter()
                        .skip(w)
                        .step_by(workers)
                        .map(|(key, job)| (key.clone(), solve_reference(job)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("reference solver panicked")).collect()
    })
}

/// Compares one ok answer with its reference.
fn compare(resp: &SolveResponse, r: &Reference, want_schedule: bool) -> Result<(), String> {
    let id = &resp.id;
    if resp.solver != r.solver {
        return Err(format!("{id}: solver {} != {}", resp.solver.id(), r.solver.id()));
    }
    if resp.throughput.to_bits() != r.throughput.to_bits()
        || resp.peak_c.to_bits() != r.peak_c.to_bits()
        || resp.m != r.m
        || resp.feasible != r.feasible
    {
        return Err(format!(
            "{id}: served (throughput {:?}, peak {:?}, m {}, feasible {}) != solved \
             ({:?}, {:?}, {}, {})",
            resp.throughput,
            resp.peak_c,
            resp.m,
            resp.feasible,
            r.throughput,
            r.peak_c,
            r.m,
            r.feasible
        ));
    }
    if resp.feasible && resp.peak_c > r.t_max_c + FEASIBILITY_EPS {
        return Err(format!(
            "{id}: feasible answer peaks at {} > T_max {}",
            resp.peak_c, r.t_max_c
        ));
    }
    let schedule_ok = if want_schedule {
        resp.schedule.as_deref() == Some(r.schedule.as_str())
    } else {
        resp.schedule.is_none()
    };
    if !schedule_ok {
        return Err(format!("{id}: schedule differs from the solved one"));
    }
    Ok(())
}

fn check_line(
    req: &Req,
    line: &str,
    refs: &HashMap<String, Result<Reference, String>>,
) -> Result<(), String> {
    let lookup = |job: &Job<'_>| -> Result<&Reference, String> {
        refs.get(&job_key(job))
            .expect("every job has a reference")
            .as_ref()
            .map_err(|e| format!("{}: in-process solve failed: {e}", req.request.id()))
    };
    let response = Response::parse(line).map_err(|e| format!("unparsable answer {line}: {e}"))?;
    match (&req.request, response) {
        (Request::Solve(s), Response::Ok(resp)) => {
            let job = &jobs(req)[0];
            if resp.id != s.id {
                return Err(format!("answer id {} for request {}", resp.id, s.id));
            }
            compare(&resp, lookup(job)?, s.want_schedule)
        }
        (Request::SolveBatch(b), Response::Batch(batch)) => {
            if batch.results.len() != b.variants.len() {
                return Err(format!(
                    "{}: {} results for {} variants",
                    b.id,
                    batch.results.len(),
                    b.variants.len()
                ));
            }
            for (i, (job, result)) in jobs(req).iter().zip(&batch.results).enumerate() {
                let Response::Ok(resp) = result else {
                    return Err(format!("{}#{i}: not ok: {}", b.id, result.to_json()));
                };
                if resp.id != format!("{}#{i}", b.id) {
                    return Err(format!("{}#{i}: answered as {}", b.id, resp.id));
                }
                compare(resp, lookup(job)?, b.variants[i].want_schedule)?;
            }
            Ok(())
        }
        (_, other) => Err(format!("{}: not ok: {}", req.request.id(), other.to_json())),
    }
}

/// The hit answer the daemon must give for `req`: the priming answer of
/// its key, under the request's id, marked cached, carrying the schedule
/// only when asked.
fn expected_hit(req: &Req, primed: &SolveResponse) -> SolveResponse {
    let Request::Solve(s) = &req.request else { unreachable!("hits are solves") };
    SolveResponse {
        id: s.id.clone(),
        cached: true,
        schedule: if s.want_schedule { primed.schedule.clone() } else { None },
        ..primed.clone()
    }
}

/// Checks the priming answers of the daemon that served the window, then
/// every window sample. Returns the verdict over the window's operations;
/// a wrong priming answer fails the whole run.
pub fn check(inputs: &Inputs, primed: &[String], samples: &[&Sample]) -> Verdict {
    let mut verdict = Verdict::default();
    let solved = samples.iter().map(|s| &inputs.pool[s.req]);
    let refs = references(
        inputs.prime.iter().chain(solved.filter(|r| !matches!(r.kind, Kind::Hot { .. }))),
    );
    let mut primed_ok: Vec<Option<SolveResponse>> = Vec::with_capacity(primed.len());
    for (req, line) in inputs.prime.iter().zip(primed) {
        match check_line(req, line, &refs) {
            Ok(()) => primed_ok.push(match Response::parse(line) {
                Ok(Response::Ok(resp)) if !resp.cached => Some(resp),
                _ => None,
            }),
            Err(e) => {
                verdict.fail(format!("priming: {e}"));
                primed_ok.push(None);
            }
        }
    }
    let mut expected_digest: HashMap<usize, u64> = HashMap::new();
    for s in samples {
        let req = &inputs.pool[s.req];
        let outcome = match (req.kind, &s.answer) {
            (Kind::Hot { key }, answer) => match primed_ok.get(key).and_then(Option::as_ref) {
                None => Err(format!("{}: its priming answer was wrong", req.request.id())),
                Some(primed) => match answer {
                    Answer::Digest(d) => {
                        let want = *expected_digest.entry(s.req).or_insert_with(|| {
                            fnv1a(expected_hit(req, primed).to_json().as_bytes())
                        });
                        if *d == want {
                            Ok(())
                        } else {
                            Err(format!(
                                "{}: hit differs from the answer that primed it",
                                req.request.id()
                            ))
                        }
                    }
                    // A hot key can be evicted by fresh keys in `mixed` and
                    // solved again: then the answer must still be the same
                    // solution, only `cached` and `wall_ms` may differ.
                    Answer::Line(line) => match Response::parse(line) {
                        Ok(Response::Ok(resp)) => {
                            let want = expected_hit(req, primed);
                            let same = resp.id == want.id
                                && resp.solver == want.solver
                                && resp.throughput.to_bits() == want.throughput.to_bits()
                                && resp.peak_c.to_bits() == want.peak_c.to_bits()
                                && resp.m == want.m
                                && resp.feasible == want.feasible
                                && resp.schedule == want.schedule;
                            if same {
                                Ok(())
                            } else {
                                Err(format!(
                                    "{}: hit differs from the answer that primed it",
                                    want.id
                                ))
                            }
                        }
                        _ => Err(format!("{}: not ok: {line}", req.request.id())),
                    },
                },
            },
            (_, Answer::Line(line)) => check_line(req, line, &refs),
            (_, Answer::Digest(_)) => Err("only hits are kept as digests".to_owned()),
        };
        verdict.ok.push(outcome.is_ok());
        if let Err(e) = outcome {
            verdict.fail(e);
        }
    }
    verdict
}
