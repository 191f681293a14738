//! Seeded workload inputs: every request line a run sends is generated here,
//! before the daemon starts, from the workload name and the seed alone.

use mosc_analyze::json::Value;
use mosc_bench::loadgen::{arrival_schedule, ArrivalProcess};
use mosc_core::{SolveOptions, SolverKind};
use mosc_serve::cache::fnv1a;
use mosc_serve::{BatchRequest, BatchVariantRequest, Request, SolveRequest};
use mosc_testutil::Rng64;

/// Solution-cache keys the `hit` and `mixed` workloads keep hot. Below the
/// daemon's default 128-entry cache, so a hot key is never evicted by the
/// hot set itself.
const HOT_KEYS: usize = 64;
/// Fresh-key solves that warm a `miss` daemon up during set-up: enough
/// solver work that set-up time is more than process start-up jitter.
const MISS_PRIME: usize = 32;
/// Priming batches per `batch` platform: the first interns it, the rest
/// are warm-registry solves like the window's.
const BATCH_PRIME_ROUNDS: usize = 8;
/// Platforms a `batch` run interns during set-up and cycles afterwards.
pub const BATCH_PLATFORMS: usize = 4;
/// Variants per `solve_batch` request, alternating AO and PCO.
const BATCH_VARIANTS: usize = 4;
/// Offered rate of the `mixed` open loop, requests per second: about a
/// third of the two-core daemon's capacity for this mix.
const MIXED_RATE_HZ: f64 = 200.0;
/// Share of `mixed` arrivals that are fresh-key AO solves.
const MIXED_MISS_SHARE: f64 = 0.1;
/// Closed-loop request pools are sized for this many requests per second of
/// window, several times the rate the daemon reaches today, so a faster
/// daemon does not run out of fresh keys.
const POOL_RATE_HZ: f64 = 1000.0;
/// `solve_batch` pools are sized for this many batches per second.
const BATCH_POOL_RATE_HZ: f64 = 250.0;

/// Table IV's four DVFS levels.
const LEVELS_4: &str = "[0.6,0.8,1.0,1.3]";

/// Every `t_max_c` a run sends lies on a grid of this step (°C) inside its
/// shape's range. The grid is finite, so `every_grid_point_solves` can
/// solve each point a seed could ever draw. It has to: AO panics on some
/// narrow `t_max_c` intervals (one on 1×3 is 0.0003 °C wide), and a
/// continuous draw could land in one that a scan stepped over.
const T_STEP_C: f64 = 5e-5;

/// The fresh-key platform shapes: rows, cols and the `t_max_c` range (°C)
/// over which AO on that shape has to oscillate (m > 1), so every solve is
/// real work and none is infeasible. Each holds 40 000 grid points, more
/// than a 60-second `miss` pool draws from one shape.
const FRESH_SHAPES: [(usize, usize, f64, f64); 3] =
    [(2, 2, 62.0, 64.0), (1, 3, 48.0, 50.0), (3, 3, 66.5, 68.5)];

/// The `batch` platform shapes: small platforms, so one batch of
/// [`BATCH_VARIANTS`] variants answers in about ten milliseconds and a run
/// holds enough batches for a p99. A run draws each platform's `t_max_c`
/// once, so the ranges are narrow: the oscillation factor, and with it the
/// cost of a batch, must not swing with the seed.
const BATCH_SHAPES: [(usize, usize, f64, f64); BATCH_PLATFORMS] =
    [(1, 2, 52.0, 52.1), (2, 2, 63.0, 63.1), (1, 2, 51.5, 51.6), (2, 2, 62.5, 62.6)];

/// The four workloads; see the crate docs for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop over the hot set: the cache-hit fast path.
    Hit,
    /// Closed loop of fresh keys: platform build plus the AO kernels.
    Miss,
    /// Closed loop of `solve_batch` on interned platforms.
    Batch,
    /// Open-loop Poisson mix of hits and misses.
    Mixed,
}

impl Workload {
    /// Every workload, in the order the repeat mode starts with.
    pub const ALL: [Self; 4] = [Self::Hit, Self::Miss, Self::Batch, Self::Mixed];

    /// The command-line and artifact spelling.
    pub fn name(self) -> &'static str {
        match self {
            Self::Hit => "hit",
            Self::Miss => "miss",
            Self::Batch => "batch",
            Self::Mixed => "mixed",
        }
    }

    /// Parses [`Self::name`].
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What answer a request must get, for the checks after the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A solve of hot key `key`: must equal the priming answer for that key.
    Hot {
        /// Index into the hot set (and into the priming requests).
        key: usize,
    },
    /// A solve of a key no earlier request used: checked against an
    /// in-process solve.
    Fresh,
    /// A `solve_batch`: every variant checked against its sequential solve.
    Batch,
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Req {
    /// The wire line, newline-terminated.
    pub line: String,
    /// The typed request the line encodes.
    pub request: Request,
    /// How its answer is checked.
    pub kind: Kind,
}

/// Everything a run sends, generated up front.
#[derive(Debug)]
pub struct Inputs {
    /// Which workload these inputs drive.
    pub workload: Workload,
    /// The seed they were generated from.
    pub seed: u64,
    /// Requests sent during each set-up, in order.
    pub prime: Vec<Req>,
    /// The window's requests. Closed loops send them in order (`hit`
    /// cycles them); `mixed` sends `pool[i]` at `arrivals[i]`.
    pub pool: Vec<Req>,
    /// Open-loop intended send times in seconds from the window start
    /// (`mixed` only).
    pub arrivals: Vec<f64>,
    /// FNV-1a digest over every generated line, in generation order: two
    /// runs with equal digests sent identical traffic.
    pub digest: u64,
}

fn platform(rows: usize, cols: usize, levels: &str, t_max_c: f64) -> Value {
    Value::parse(&format!(
        "{{\"rows\":{rows},\"cols\":{cols},\"levels\":{levels},\"t_max_c\":{t_max_c:?}}}"
    ))
    .expect("generated platform is valid JSON")
}

/// Number of [`T_STEP_C`] grid points in `[lo, hi)`.
fn grid_len(lo: f64, hi: f64) -> u64 {
    ((hi - lo) / T_STEP_C).round() as u64
}

/// Grid point `k` of a range starting at `lo`.
fn grid_point(lo: f64, k: u64) -> f64 {
    lo + k as f64 * T_STEP_C
}

/// A low-discrepancy walk over the grid points of `[lo, hi)` from a seeded
/// start: a golden-ratio stride coprime to the point count, so it visits
/// every point once before it repeats one, and spreads evenly over the
/// range, so the cost mix of a run does not swing with the seed.
struct Spread {
    lo: f64,
    len: u64,
    stride: u64,
    at: u64,
}

impl Spread {
    fn new(rng: &mut Rng64, lo: f64, hi: f64) -> Self {
        const GOLDEN: f64 = 0.618_033_988_749_894_9;
        let len = grid_len(lo, hi);
        let gcd = |mut a: u64, mut b: u64| {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a
        };
        let mut stride = (len as f64 * GOLDEN) as u64;
        while gcd(stride, len) != 1 {
            stride += 1;
        }
        Self { lo, len, stride, at: rng.below(len) }
    }

    fn draw(&mut self) -> f64 {
        let t = grid_point(self.lo, self.at);
        self.at = (self.at + self.stride) % self.len;
        t
    }
}

/// Fresh-key AO solves, cycling the three shapes; each shape walks its own
/// `t_max_c` range so consecutive keys of one shape are distinct.
struct FreshKeys {
    spreads: Vec<Spread>,
    count: usize,
}

impl FreshKeys {
    fn new(rng: &mut Rng64) -> Self {
        let spreads = FRESH_SHAPES.iter().map(|&(_, _, lo, hi)| Spread::new(rng, lo, hi)).collect();
        Self { spreads, count: 0 }
    }

    fn next(&mut self, id: String, want_schedule: bool) -> Req {
        let shape = self.count % FRESH_SHAPES.len();
        self.count += 1;
        let (rows, cols, _, _) = FRESH_SHAPES[shape];
        let t_max_c = self.spreads[shape].draw();
        let request = Request::Solve(SolveRequest {
            id,
            kind: SolverKind::Ao,
            platform: platform(rows, cols, LEVELS_4, t_max_c),
            options: SolveOptions::default(),
            want_schedule,
            trace: None,
        });
        finish(request, Kind::Fresh)
    }
}

fn finish(request: Request, kind: Kind) -> Req {
    let mut line = request.to_json();
    line.push('\n');
    Req { line, request, kind }
}

/// The hot set: [`HOT_KEYS`] fresh keys, primed with their schedules so
/// both hit flavours (with and without `want_schedule`) can be checked.
fn hot_set(rng: &mut Rng64) -> Vec<Req> {
    let mut keys = FreshKeys::new(rng);
    (0..HOT_KEYS).map(|k| keys.next(format!("p{k}"), true)).collect()
}

/// A hit on hot key `key`: the primed request under another id.
fn hot_req(prime: &[Req], key: usize, want_schedule: bool, id: String) -> Req {
    let Request::Solve(primed) = &prime[key].request else {
        unreachable!("hot keys are solve requests")
    };
    let request = Request::Solve(SolveRequest { id, want_schedule, ..primed.clone() });
    finish(request, Kind::Hot { key })
}

/// Options of a batch variant. `threads: 1` leaves the parallelism to the
/// `solve_batch` fan-out, which is what this workload loads (`miss` loads
/// the solvers' own fan-out). The salt makes every variant its own
/// solution-cache key without changing the solve: the governor horizon is
/// read by the reactive governor only, never by AO or PCO, yet it is part
/// of the cache key.
fn salted(salt: usize) -> SolveOptions {
    let mut options = SolveOptions { threads: 1, ..SolveOptions::default() };
    options.governor.horizon += salt as f64;
    options
}

fn batch_req(id: String, platform: &Value, salt0: usize) -> Req {
    let variants = (0..BATCH_VARIANTS)
        .map(|v| BatchVariantRequest {
            kind: if v % 2 == 0 { SolverKind::Ao } else { SolverKind::Pco },
            options: salted(salt0 + v),
            want_schedule: true,
        })
        .collect();
    let request =
        Request::SolveBatch(BatchRequest { id, platform: platform.clone(), variants, trace: None });
    finish(request, Kind::Batch)
}

/// Generates a run's inputs for a window of `seconds`.
pub fn generate(workload: Workload, seed: u64, seconds: f64) -> Inputs {
    let mut rng = Rng64::seed_from_u64(seed ^ (workload as u64).wrapping_mul(0x9E37_79B9));
    let pool_len = |rate: f64| (seconds * rate).ceil() as usize;
    let (prime, pool, arrivals) = match workload {
        Workload::Hit => {
            let prime = hot_set(&mut rng);
            let mut pool: Vec<Req> = (0..HOT_KEYS)
                .flat_map(|k| {
                    [
                        hot_req(&prime, k, true, format!("h{k}s")),
                        hot_req(&prime, k, false, format!("h{k}n")),
                    ]
                })
                .collect();
            rng.shuffle(&mut pool);
            (prime, pool, Vec::new())
        }
        Workload::Miss => {
            let mut keys = FreshKeys::new(&mut rng);
            let prime = (0..MISS_PRIME).map(|i| keys.next(format!("p{i}"), false)).collect();
            let pool =
                (0..pool_len(POOL_RATE_HZ)).map(|i| keys.next(format!("f{i}"), false)).collect();
            (prime, pool, Vec::new())
        }
        Workload::Batch => {
            let platforms: Vec<Value> = BATCH_SHAPES
                .iter()
                .map(|&(rows, cols, lo, hi)| {
                    let k = rng.below(grid_len(lo, hi));
                    platform(rows, cols, LEVELS_4, grid_point(lo, k))
                })
                .collect();
            let primes = BATCH_PRIME_ROUNDS * BATCH_PLATFORMS;
            let prime = (0..primes)
                .map(|i| {
                    batch_req(format!("p{i}"), &platforms[i % BATCH_PLATFORMS], i * BATCH_VARIANTS)
                })
                .collect();
            let pool = (0..pool_len(BATCH_POOL_RATE_HZ))
                .map(|i| {
                    let salt0 = (primes + i) * BATCH_VARIANTS;
                    batch_req(format!("b{i}"), &platforms[i % BATCH_PLATFORMS], salt0)
                })
                .collect();
            (prime, pool, Vec::new())
        }
        Workload::Mixed => {
            let prime = hot_set(&mut rng);
            let arrivals = arrival_schedule(ArrivalProcess::Poisson, MIXED_RATE_HZ, seconds, seed);
            let mut keys = FreshKeys::new(&mut rng);
            let pool = (0..arrivals.len())
                .map(|i| {
                    if rng.next_f64() < MIXED_MISS_SHARE {
                        keys.next(format!("f{i}"), false)
                    } else {
                        let key = rng.below(HOT_KEYS as u64) as usize;
                        hot_req(&prime, key, rng.next_f64() < 0.5, format!("m{i}"))
                    }
                })
                .collect();
            (prime, pool, arrivals)
        }
    };
    let line_hashes: Vec<u8> =
        prime.iter().chain(&pool).flat_map(|r| fnv1a(r.line.as_bytes()).to_le_bytes()).collect();
    Inputs { workload, seed, prime, pool, arrivals, digest: fnv1a(&line_hashes) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_traffic() {
        for w in Workload::ALL {
            let a = generate(w, 7, 1.0);
            let b = generate(w, 7, 1.0);
            assert_eq!(a.digest, b.digest, "{}", w.name());
            assert_ne!(a.digest, generate(w, 8, 1.0).digest, "{}", w.name());
        }
    }

    #[test]
    fn lines_round_trip_through_the_parser() {
        for w in Workload::ALL {
            let inputs = generate(w, 3, 0.5);
            for r in inputs.prime.iter().chain(&inputs.pool) {
                let parsed = mosc_serve::parse_request(r.line.trim_end()).expect("parses");
                assert_eq!(parsed.to_json(), r.line.trim_end());
            }
        }
    }

    /// Solves every `t_max_c` grid point a seed can draw, as the daemon
    /// would: AO on the fresh-key shapes, AO and PCO on the batch shapes.
    /// Each must answer without a panic or an error; a fresh-key AO solve
    /// must also be feasible and oscillate (m > 1). It solves with
    /// `threads: 1`, which the solvers promise is bit-identical to any
    /// thread count (and the answer checks hold the daemon to that).
    /// Run it with
    /// `cargo test --release --manifest-path perfbench/Cargo.toml -- --ignored`.
    #[test]
    #[ignore = "solves 136 000 platforms: minutes of CPU on two cores"]
    fn every_grid_point_solves() {
        // Solver, rows, cols, `t_max_c`, and whether it is a fresh-key shape.
        type Job = (SolverKind, usize, usize, f64, bool);
        let mut jobs: Vec<Job> = Vec::new();
        for &(rows, cols, lo, hi) in &FRESH_SHAPES {
            for k in 0..grid_len(lo, hi) {
                jobs.push((SolverKind::Ao, rows, cols, grid_point(lo, k), true));
            }
        }
        for &(rows, cols, lo, hi) in &BATCH_SHAPES {
            for k in 0..grid_len(lo, hi) {
                for kind in [SolverKind::Ao, SolverKind::Pco] {
                    jobs.push((kind, rows, cols, grid_point(lo, k), false));
                }
            }
        }
        let solve = |&(kind, rows, cols, t_max_c, fresh): &Job| {
            let doc = Value::Object(vec![(
                "platform".to_owned(),
                platform(rows, cols, LEVELS_4, t_max_c),
            )]);
            let p = mosc_analyze::platform_from_doc(&doc).expect("generated platform builds");
            let options = SolveOptions { threads: 1, ..SolveOptions::default() };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                mosc_core::solve(kind, &p, &options)
            }));
            let why = match outcome {
                Err(_) => "panicked".to_owned(),
                Ok(Err(e)) => e.to_string(),
                Ok(Ok(r)) if fresh && !(r.solution.feasible && r.solution.m > 1) => {
                    format!("feasible {} m {}", r.solution.feasible, r.solution.m)
                }
                Ok(Ok(_)) => return None,
            };
            Some(format!("{kind:?} {rows}x{cols} t_max_c {t_max_c:?}: {why}"))
        };
        let bad: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|t| {
                    let jobs = &jobs;
                    scope.spawn(move || {
                        jobs.iter().skip(t).step_by(2).filter_map(solve).collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("scan thread")).collect()
        });
        assert!(bad.is_empty(), "{} grid points fail: {:#?}", bad.len(), &bad[..bad.len().min(20)]);
    }

    #[test]
    fn fresh_keys_never_repeat() {
        // A 60-second window, the longest a run may ask for.
        let inputs = generate(Workload::Miss, 11, 60.0);
        let mut keys: Vec<String> = inputs
            .prime
            .iter()
            .chain(&inputs.pool)
            .map(|r| match &r.request {
                Request::Solve(s) => mosc_serve::cache_key(s).preimage,
                _ => unreachable!(),
            })
            .collect();
        let n = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), n);
    }
}
