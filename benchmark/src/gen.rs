//! Seeded input generators: the same seed gives the same requests, programs
//! and DAG stream; the program under test receives only what is generated
//! here.  Every size is a frozen constant, chosen on a 2-core machine (see
//! the README).

use bytes::Bytes;
use rp_lambda4i::pretty::program_to_string;
use rp_lambda4i::progs::{parallel_fib, server_with_background};
use rp_lambda4i::syntax::dsl::{
    add, app, bind, cmd, fcreate, fix, ftouch, ifz, lam, nat, ret, var,
};
use rp_lambda4i::syntax::{Cmd, Program, Type};
use rp_net::protocol::{AppOp, Request};
use rp_priority::PriorityDomain;

/// Pages in the warm proxy pool.
pub const POOL_URLS: usize = 64;
/// Bytes per pooled page.
pub const PAGE_BYTES: usize = 512;
/// Generated email users; user 0 belongs to the interactive connection.
pub const EMAIL_USERS: usize = 4;
/// Messages per mailbox.
pub const EMAIL_MESSAGES: usize = 8;
/// Distinct jserver job seeds in the background rotation.
pub const JOB_SEEDS: usize = 16;
/// Index of the mergesort job in `JobClass::default_mix()`.
pub const JOB_SORT: u8 = 2;
/// Index of the Smith–Waterman job in `JobClass::default_mix()`.
pub const JOB_SW: u8 = 3;
/// Hot λ⁴ᵢ sources resubmitted through the compile cache.
pub const HOT_SOURCES: usize = 8;
/// Shape of every `trace_analysis` DAG: threads, vertices per thread, levels.
pub const DAG_SHAPE: (usize, usize, usize) = (200, 25, 4);

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }
}

/// A page body of `len` printable bytes.
fn page(rng: &mut Rng, len: usize) -> Bytes {
    let body: Vec<u8> = (0..len)
        .map(|_| b' ' + (rng.next_u64() % 95) as u8)
        .collect();
    Bytes::from(body)
}

/// The proxy pool: `POOL_URLS` URLs, each with a `PAGE_BYTES` page.
pub fn page_pool(seed: u64) -> Vec<(String, Bytes)> {
    let mut rng = Rng::new(seed ^ 0x9A6E);
    (0..POOL_URLS)
        .map(|i| {
            let url = format!("http://pool.example/{seed:x}/{i}");
            (url, page(&mut rng, PAGE_BYTES))
        })
        .collect()
}

/// A proxy request that must be answered from the cache: it ships no origin
/// body, so an unexpected miss returns the wrong checksum and is counted
/// failed.
pub fn hit_request(url: &str) -> Request {
    Request::App(AppOp::ProxyGet {
        url: url.to_string(),
        body_if_missed: Bytes::new(),
    })
}

/// A proxy request for `url` that carries the origin's page.
pub fn fill_request(url: &str, body: &Bytes) -> Request {
    Request::App(AppOp::ProxyGet {
        url: url.to_string(),
        body_if_missed: body.clone(),
    })
}

/// What the `i`-th request of a wire connection is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireOp {
    /// A cache hit on pool entry `.0`.
    Hit(usize),
    /// A miss on a URL never requested before, with its origin page.
    Miss(String, Bytes),
    /// Print message `.1` of user `.0`.
    Print(u32, u32),
    /// Compress message `.1` of user `.0`.
    Compress(u32, u32),
    /// Run jserver job class `.0` on job seed index `.1`.
    Job(u8, usize),
}

/// The `i`-th request of a `wire_small` connection: pool hits in a seeded
/// order.
pub fn small_op(seed: u64, conn: u64, i: u64) -> WireOp {
    let mut rng = Rng::new(seed ^ (conn << 32) ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03));
    WireOp::Hit(rng.range(0, POOL_URLS as u64) as usize)
}

/// The `i`-th request of the interactive `wire_mixed` connection: a cycle
/// of eight hits, one miss on a fresh URL and one print of user 0's mail.
pub fn interactive_op(seed: u64, i: u64) -> WireOp {
    let mut rng = Rng::new(seed ^ 0x1A7E ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03));
    match i % 10 {
        8 => WireOp::Miss(
            format!("http://fresh.example/{seed:x}/{}", i / 10),
            page(&mut rng, PAGE_BYTES),
        ),
        9 => WireOp::Print(0, ((i / 10) % EMAIL_MESSAGES as u64) as u32),
        _ => WireOp::Hit(rng.range(0, POOL_URLS as u64) as usize),
    }
}

/// The `i`-th request of the background `wire_mixed` connection: sort,
/// Smith–Waterman, compress, in rotation.  Compressions walk the mailboxes
/// of users 1.. message by message, so with eight requests outstanding no
/// two in flight name the same message (the helping-deadlock workaround,
/// ROADMAP item 4), and none touches user 0's mail.
pub fn background_op(i: u64) -> WireOp {
    let round = i / 3;
    match i % 3 {
        0 => WireOp::Job(JOB_SORT, (round % JOB_SEEDS as u64) as usize),
        1 => WireOp::Job(JOB_SW, (round % JOB_SEEDS as u64) as usize),
        _ => {
            let slots = ((EMAIL_USERS - 1) * EMAIL_MESSAGES) as u64;
            let slot = round % slots;
            WireOp::Compress(
                1 + (slot / EMAIL_MESSAGES as u64) as u32,
                (slot % EMAIL_MESSAGES as u64) as u32,
            )
        }
    }
}

/// The jserver seed behind job seed index `k`.
pub fn job_seed(seed: u64, k: usize) -> u64 {
    Rng::new(seed ^ 0x10B5 ^ (k as u64) << 8).next_u64()
}

// ---------------------------------------------------------------------------
// λ⁴ᵢ programs
// ---------------------------------------------------------------------------

/// A generated λ⁴ᵢ source with the value it must evaluate to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LambdaInput {
    /// `.l4i` source text.
    pub source: String,
    /// The expected final value (a natural number).
    pub expected: u64,
}

/// `fib(n)` by iteration: the oracle's closed form for `parallel_fib`.
pub fn fib(n: u64) -> u64 {
    (0..n).fold((0u64, 1u64), |(a, b), _| (b, a + b)).0
}

/// A `k`-way fork–join: `k` futures each count down from `w`, the main
/// thread touches all of them and sums.  Evaluates to `k · w`.
fn fork_join(k: usize, w: u64) -> Program {
    let dom = PriorityDomain::single();
    let p = dom.by_index(0);
    let work = fix(
        "loop",
        Type::arrow(Type::Nat, Type::Nat),
        lam(
            "n",
            Type::Nat,
            ifz(
                var("n"),
                nat(0),
                "m",
                add(nat(1), app(var("loop"), var("m"))),
            ),
        ),
    );
    let mut sum = nat(0);
    for i in 0..k {
        sum = add(sum, var(&format!("v{i}")));
    }
    let mut body: Cmd = ret(sum);
    for i in (0..k).rev() {
        body = bind(
            &format!("v{i}"),
            cmd(p, ftouch(var(&format!("t{i}")))),
            body,
        );
    }
    for i in (0..k).rev() {
        let child = ret(app(work.clone(), nat(w)));
        body = bind(&format!("t{i}"), cmd(p, fcreate(p, Type::Nat, child)), body);
    }
    Program {
        name: "fork-join".to_string(),
        domain: dom,
        main_priority: p,
        main: std::sync::Arc::new(body),
        return_type: Type::Nat,
    }
}

/// Wraps `prog` so it evaluates to its own value plus `salt`; the salt is
/// part of the printed text, so every salt gives a source the compile cache
/// has never seen.
fn salted(prog: Program, salt: u64) -> Program {
    let p = prog.main_priority;
    let inner = (*prog.main).clone();
    Program {
        main: std::sync::Arc::new(bind(
            "unsalted",
            cmd(p, inner),
            ret(add(var("unsalted"), nat(salt))),
        )),
        ..prog
    }
}

/// The program shapes, in the order the family cycles through them.  The
/// abstract machine's cost grows steeply with program size (parallel fib 8
/// already takes 85 ms, fib 10 1.5 s), so the shapes stay small; and the
/// cycle is fixed, not drawn from the seed, so that every seed gives the
/// same amount of work.  Nine shapes of distinct cost put the median
/// latency inside one shape's samples instead of between two.
const SHAPES: [Shape; 9] = [
    Shape::Fib(4),
    Shape::Server(2, 1),
    Shape::ForkJoin(4, 4),
    Shape::Fib(5),
    Shape::Server(3, 2),
    Shape::ForkJoin(6, 8),
    Shape::Fib(6),
    Shape::Server(4, 3),
    Shape::ForkJoin(8, 12),
];

#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `parallel_fib(n)`.
    Fib(u64),
    /// `server_with_background(requests, background)`.
    Server(usize, usize),
    /// `fork_join(k, w)`.
    ForkJoin(usize, u64),
}

/// The program of shape `i mod 9`, salted with `salt`.
fn lambda_input(i: u64, salt: u64) -> LambdaInput {
    let (prog, value) = match SHAPES[(i % SHAPES.len() as u64) as usize] {
        Shape::Fib(n) => (parallel_fib(n), fib(n)),
        // Each request thread returns work(3) = 3; background threads are
        // never touched.
        Shape::Server(r, b) => (server_with_background(r, b), 3 * r as u64),
        Shape::ForkJoin(k, w) => (fork_join(k, w), k as u64 * w),
    };
    LambdaInput {
        source: program_to_string(&salted(prog, salt)),
        expected: value + salt,
    }
}

/// Where a seed's salts start; fresh salts count up from here, hot salts
/// sit half a million above, so no two sources of a run share a text.
fn salt_base(seed: u64) -> u64 {
    (Rng::new(seed ^ 0x1A4B).next_u64() % 1_000_000) * 1_000_000
}

/// The hot set: the first `HOT_SOURCES` shapes, resubmitted unchanged so
/// the compile cache answers their front half.
pub fn hot_inputs(seed: u64) -> Vec<LambdaInput> {
    (0..HOT_SOURCES as u64)
        .map(|i| lambda_input(i, salt_base(seed) + 500_000 + i))
        .collect()
}

/// The `i`-th fresh program: its salt is unique within a run, so its text is
/// new to every cache.
pub fn fresh_input(seed: u64, i: u64) -> LambdaInput {
    lambda_input(i, salt_base(seed) + 1 + i)
}

/// The seed of the `i`-th `trace_analysis` DAG.
pub fn dag_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_add(i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_core::random::sized_dag;

    #[test]
    fn same_seed_same_request_stream() {
        let stream = |seed: u64| -> Vec<WireOp> {
            (0..40)
                .flat_map(|i| {
                    [
                        small_op(seed, 1, i),
                        interactive_op(seed, i),
                        background_op(i),
                    ]
                })
                .collect()
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
        assert_eq!(page_pool(7), page_pool(7));
        assert_ne!(page_pool(7), page_pool(8));
        assert_eq!(job_seed(7, 3), job_seed(7, 3));
        assert_ne!(job_seed(7, 3), job_seed(7, 4));
    }

    #[test]
    fn background_never_repeats_a_message_within_eight_requests() {
        let ops: Vec<WireOp> = (0..600).map(background_op).collect();
        for w in ops.windows(8) {
            let msgs: Vec<&WireOp> = w
                .iter()
                .filter(|o| matches!(o, WireOp::Compress(..)))
                .collect();
            for (i, a) in msgs.iter().enumerate() {
                assert!(!msgs[i + 1..].contains(a), "{a:?} twice in flight");
                assert!(
                    !matches!(a, WireOp::Compress(0, _)),
                    "user 0 is interactive"
                );
            }
        }
    }

    #[test]
    fn same_seed_same_programs() {
        let progs = |seed: u64| -> Vec<LambdaInput> {
            (0..9)
                .map(|i| fresh_input(seed, i))
                .chain(hot_inputs(seed))
                .collect()
        };
        assert_eq!(progs(3), progs(3));
        assert_ne!(progs(3), progs(4));
        // Fresh sources never repeat, and never collide with the hot set.
        let all = progs(3);
        for (i, a) in all.iter().enumerate() {
            assert!(all[i + 1..].iter().all(|b| b.source != a.source));
        }
        assert_eq!(fib(10), 55);
    }

    #[test]
    fn same_seed_same_dags() {
        let (t, v, l) = (20, 5, DAG_SHAPE.2);
        let a = sized_dag(dag_seed(5, 1), t, v, l);
        let b = sized_dag(dag_seed(5, 1), t, v, l);
        let c = sized_dag(dag_seed(6, 1), t, v, l);
        assert_eq!(a.edges(), b.edges());
        assert_ne!(a.edges(), c.edges());
        assert_eq!(a.vertex_count(), t * v);
    }
}
