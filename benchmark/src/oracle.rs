//! Expected values computed outside the path under test, and the checks
//! that count a wrong, refused or missing answer as failed.

use crate::gen::{self, WireOp};
use bytes::Bytes;
use rp_apps::email::{EmailState, HuffmanCode};
use rp_apps::jserver::JobClass;
use rp_core::graph::CostDag;
use rp_core::schedule::Schedule;
use rp_net::protocol::{decode_response, Response};

/// The proxy's response checksum (FNV-1a over the page), restated here so
/// the expected value does not come from the code that serves it.
pub fn page_checksum(body: &[u8]) -> u64 {
    body.iter().fold(1469598103934665603u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(1099511628211)
    })
}

/// Expected results of every wire operation of one run, computed once at
/// set-up by direct in-process calls.
#[derive(Debug, Clone)]
pub struct WireOracle {
    pool_sums: Vec<u64>,
    /// `[user][msg]` → bits saved by Huffman-coding the message.
    compress: Vec<Vec<u64>>,
    /// `[user][msg]` → byte sum of the message.
    print: Vec<Vec<u64>>,
    /// `[job seed index]` → mergesort and Smith–Waterman results.
    sort: Vec<u64>,
    sw: Vec<u64>,
}

impl WireOracle {
    /// Expected values for a server started with `seed` and the frozen
    /// email shape, serving `pool`.
    pub fn new(seed: u64, pool: &[(String, Bytes)]) -> WireOracle {
        let email = EmailState::generate(gen::EMAIL_USERS, gen::EMAIL_MESSAGES, seed);
        let per_message = |f: &dyn Fn(&str) -> u64| -> Vec<Vec<u64>> {
            email
                .mailboxes
                .iter()
                .map(|mb| {
                    (0..mb.len())
                        .map(|i| f(&mb.message(i).body.lock()))
                        .collect()
                })
                .collect()
        };
        let mix = JobClass::default_mix();
        let job = |class: u8| -> Vec<u64> {
            (0..gen::JOB_SEEDS)
                .map(|k| mix[class as usize].execute(gen::job_seed(seed, k)))
                .collect()
        };
        WireOracle {
            pool_sums: pool.iter().map(|(_, body)| page_checksum(body)).collect(),
            compress: per_message(&|body| match HuffmanCode::build(body.as_bytes()) {
                Some(code) => body.len() as u64 * 8 - code.encode(body.as_bytes()).1 as u64,
                None => 0,
            }),
            print: per_message(&|body| body.bytes().map(u64::from).sum()),
            sort: job(gen::JOB_SORT),
            sw: job(gen::JOB_SW),
        }
    }

    /// The `u64` the server must answer `op` with.
    pub fn expected(&self, op: &WireOp) -> u64 {
        match op {
            WireOp::Hit(i) => self.pool_sums[*i],
            WireOp::Miss(_, body) => page_checksum(body),
            WireOp::Print(u, m) => self.print[*u as usize][*m as usize],
            WireOp::Compress(u, m) => self.compress[*u as usize][*m as usize],
            WireOp::Job(gen::JOB_SORT, k) => self.sort[*k],
            WireOp::Job(_, k) => self.sw[*k],
        }
    }
}

/// Whether a response body is a well-formed app answer carrying `expected`.
/// Error replies (malformed, overloaded, shutting down), other classes and
/// undecodable bodies are all wrong answers.
pub fn reply_is(body: &[u8], expected: u64) -> bool {
    matches!(decode_response(body), Ok(Response::App { result }) if result == expected)
}

/// An independent schedule validator: every vertex exactly once, at most
/// `cores` per step, and no vertex before any of its strong parents.
pub fn validate_schedule(dag: &CostDag, schedule: &Schedule, cores: usize) -> Result<(), String> {
    let mut step_of = vec![usize::MAX; dag.vertex_count()];
    for (j, step) in schedule.steps.iter().enumerate() {
        if step.len() > cores {
            return Err(format!(
                "step {j} runs {} vertices on {cores} cores",
                step.len()
            ));
        }
        for v in step {
            if std::mem::replace(&mut step_of[v.index()], j) != usize::MAX {
                return Err(format!("vertex {v} scheduled twice"));
            }
        }
    }
    for v in dag.vertices() {
        if step_of[v.index()] == usize::MAX {
            return Err(format!("vertex {v} never scheduled"));
        }
        for p in dag.strong_parents(v) {
            if step_of[p.index()] >= step_of[v.index()] {
                return Err(format!("vertex {v} runs no later than its parent {p}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_core::random::sized_dag;
    use rp_core::scheduler::prompt_schedule;
    use rp_net::protocol::{encode_response, ErrorCode};

    #[test]
    fn a_corrupted_reply_is_counted_failed() {
        let pool = gen::page_pool(11);
        let oracle = WireOracle::new(11, &pool);
        let want = oracle.expected(&WireOp::Hit(3));
        assert_eq!(want, page_checksum(&pool[3].1));
        let good = encode_response(&Response::App { result: want });
        assert!(reply_is(&good, want));
        let mut flipped = good.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert!(!reply_is(&flipped, want));
        assert!(!reply_is(&good[..good.len() - 1], want));
        let shed = encode_response(&Response::error(ErrorCode::Overloaded, "shed"));
        assert!(!reply_is(&shed, want));
        // A miss answered for a hit request checksums the empty body.
        assert_ne!(page_checksum(&[]), want);
    }

    #[test]
    fn oracle_matches_direct_calls() {
        let oracle = WireOracle::new(5, &gen::page_pool(5));
        let mix = JobClass::default_mix();
        assert_eq!(
            oracle.expected(&WireOp::Job(gen::JOB_SW, 2)),
            mix[gen::JOB_SW as usize].execute(gen::job_seed(5, 2))
        );
        assert_ne!(
            oracle.expected(&WireOp::Compress(1, 0)),
            oracle.expected(&WireOp::Print(1, 0))
        );
    }

    #[test]
    fn validator_accepts_the_scheduler_and_rejects_tampering() {
        let dag = sized_dag(9, 12, 5, 3);
        let good = prompt_schedule(&dag, 2);
        assert_eq!(validate_schedule(&dag, &good, 2), Ok(()));
        assert!(validate_schedule(&dag, &good, 1).is_err());
        let mut dup = good.clone();
        let v = dup.steps[0][0];
        dup.steps.push(vec![v]);
        assert!(validate_schedule(&dag, &dup, 2)
            .unwrap_err()
            .contains("twice"));
        let mut missing = good.clone();
        missing.steps.pop();
        assert!(validate_schedule(&dag, &missing, 2).is_err());
        let mut reversed = good.clone();
        reversed.steps.reverse();
        assert!(validate_schedule(&dag, &reversed, 2)
            .unwrap_err()
            .contains("parent"));
    }
}
