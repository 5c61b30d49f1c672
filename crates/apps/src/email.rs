//! The multi-user email-client case study (§5.1).
//!
//! Users send, sort, and print messages; a background component periodically
//! compresses mailboxes with Huffman codes.  Priority levels, lowest to
//! highest: `main`, `check`, `compress` (compression and printing), `sort`,
//! `send`, `event` (the user-request event loop).
//!
//! The interesting interaction from the paper is reproduced in
//! [`compress_message`] / [`print_message`]: both
//! operations claim a per-message slot holding the handle of any ongoing
//! operation; the newcomer touches the previous occupant's future before
//! proceeding, so a print never observes a half-compressed message and vice
//! versa — coordination through thread handles stored in mutable state.

use crate::harness::{
    collect_trace, drive_open_loop, run_report, ExperimentConfig, ExperimentReport, LoadMode,
    OpenLoopConfig, OpenLoopOutcome, TraceHarvestError, TraceRunReport,
};
use parking_lot::Mutex;
use rp_icilk::runtime::{Runtime, SchedulerKind};
use rp_icilk::IFuture;
use rp_sim::stats::LatencyStats;
use rp_sim::workload::EmailGenerator;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Priority level names, lowest first.
pub const LEVELS: [&str; 6] = ["main", "check", "compress", "sort", "send", "event"];

// ---------------------------------------------------------------------------
// Huffman coding (CLRS §16.3), the compression kernel of the case study.
// ---------------------------------------------------------------------------

/// A Huffman code for a byte alphabet: code words indexed by symbol.
#[derive(Debug, Clone)]
pub struct HuffmanCode {
    /// `codes[b]` is the bit string (as booleans) for byte `b`, if it occurs.
    codes: HashMap<u8, Vec<bool>>,
}

#[derive(Debug)]
enum Node {
    Leaf(u8),
    Internal(Box<Node>, Box<Node>),
}

impl HuffmanCode {
    /// Builds the optimal prefix code for the given text.
    ///
    /// Returns `None` for empty input.
    pub fn build(text: &[u8]) -> Option<HuffmanCode> {
        if text.is_empty() {
            return None;
        }
        let mut freq: HashMap<u8, u64> = HashMap::new();
        for &b in text {
            *freq.entry(b).or_insert(0) += 1;
        }
        // Simple O(n²) merge is fine for a 256-symbol alphabet.
        let mut forest: Vec<(u64, u64, Node)> = freq
            .iter()
            .map(|(&b, &f)| (f, u64::from(b), Node::Leaf(b)))
            .collect();
        let mut tiebreak = 256u64;
        while forest.len() > 1 {
            forest.sort_by_key(|(f, t, _)| (*f, *t));
            let (f1, _, n1) = forest.remove(0);
            let (f2, _, n2) = forest.remove(0);
            tiebreak += 1;
            forest.push((
                f1 + f2,
                tiebreak,
                Node::Internal(Box::new(n1), Box::new(n2)),
            ));
        }
        let (_, _, root) = forest.pop().expect("non-empty input has a tree");
        let mut codes = HashMap::new();
        match root {
            // A single-symbol alphabet gets the 1-bit code `0`.
            Node::Leaf(b) => {
                codes.insert(b, vec![false]);
            }
            node => assign(&node, &mut Vec::new(), &mut codes),
        }
        Some(HuffmanCode { codes })
    }

    /// Encodes the text, returning the bit stream packed into bytes together
    /// with the bit length.
    ///
    /// # Panics
    ///
    /// Panics if the text contains a symbol the code was not built for.
    pub fn encode(&self, text: &[u8]) -> (Vec<u8>, usize) {
        let mut bits = Vec::with_capacity(text.len() * 4);
        for b in text {
            bits.extend_from_slice(
                self.codes
                    .get(b)
                    .expect("symbol present in the code's alphabet"),
            );
        }
        let len = bits.len();
        let mut packed = vec![0u8; len.div_ceil(8)];
        for (i, bit) in bits.iter().enumerate() {
            if *bit {
                packed[i / 8] |= 1 << (i % 8);
            }
        }
        (packed, len)
    }

    /// Decodes a bit stream produced by [`encode`](Self::encode).
    pub fn decode(&self, packed: &[u8], bit_len: usize) -> Vec<u8> {
        // Invert the code table.
        let inverse: HashMap<&Vec<bool>, u8> = self.codes.iter().map(|(b, c)| (c, *b)).collect();
        let mut out = Vec::new();
        let mut current = Vec::new();
        for i in 0..bit_len {
            current.push(packed[i / 8] & (1 << (i % 8)) != 0);
            if let Some(&b) = inverse.get(&current) {
                out.push(b);
                current.clear();
            }
        }
        out
    }

    /// Number of distinct symbols in the code.
    pub fn alphabet_size(&self) -> usize {
        self.codes.len()
    }
}

fn assign(node: &Node, prefix: &mut Vec<bool>, codes: &mut HashMap<u8, Vec<bool>>) {
    match node {
        Node::Leaf(b) => {
            codes.insert(*b, prefix.clone());
        }
        Node::Internal(l, r) => {
            prefix.push(false);
            assign(l, prefix, codes);
            prefix.pop();
            prefix.push(true);
            assign(r, prefix, codes);
            prefix.pop();
        }
    }
}

// ---------------------------------------------------------------------------
// Mailboxes and the print/compress coordination slot.
// ---------------------------------------------------------------------------

/// One stored message: plain or compressed, plus the coordination slot
/// holding the handle of any in-flight print/compress operation.
#[derive(Debug)]
pub struct Message {
    /// The plain text (cleared once compressed).
    pub body: Mutex<String>,
    /// The compressed representation, if the message has been compressed.
    pub compressed: Mutex<Option<(Vec<u8>, usize)>>,
    /// The slot where print/compress operations publish their handle so the
    /// other can wait for them (the paper's per-email array entry).
    pub slot: Mutex<Option<IFuture<u64>>>,
}

/// One user's mailbox.
#[derive(Debug, Default)]
pub struct Mailbox {
    messages: Vec<Arc<Message>>,
}

impl Mailbox {
    /// Creates a mailbox holding the given message bodies.
    pub fn new(bodies: Vec<String>) -> Self {
        Mailbox {
            messages: bodies
                .into_iter()
                .map(|body| {
                    Arc::new(Message {
                        body: Mutex::new(body),
                        compressed: Mutex::new(None),
                        slot: Mutex::new(None),
                    })
                })
                .collect(),
        }
    }

    /// Number of messages.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// Whether the mailbox has no messages.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// The message at the given index.
    pub fn message(&self, i: usize) -> Arc<Message> {
        Arc::clone(&self.messages[i])
    }
}

/// Claims the slot of a message for a new operation, returning the previous
/// occupant (if any) that must be touched before proceeding.
fn claim_slot(message: &Message, ticket: IFuture<u64>) -> Option<IFuture<u64>> {
    let mut slot = message.slot.lock();
    slot.replace(ticket)
}

/// Spawns a compression of `message` at `compress` priority, coordinating
/// with any in-flight print through the slot.
pub fn compress_message(rt: &Arc<Runtime>, message: Arc<Message>) -> IFuture<u64> {
    let compress = rt.priority_by_name("compress").expect("level exists");
    let rt2 = Arc::clone(rt);
    let ticket: IFuture<u64> = IFuture::detached(compress);
    let ticket_for_task = ticket.clone();
    let previous = claim_slot(&message, ticket.clone());
    rt.fcreate(compress, move || {
        if let Some(prev) = previous {
            // Wait for the ongoing print/compress of the same message;
            // both run at the same priority level so this touch is legal.
            let _ = rt2.ftouch(&prev);
        }
        let body = message.body.lock().clone();
        let result = if body.is_empty() {
            0
        } else if let Some(code) = HuffmanCode::build(body.as_bytes()) {
            let (packed, bits) = code.encode(body.as_bytes());
            let saved = body.len() as u64 * 8 - bits as u64;
            *message.compressed.lock() = Some((packed, bits));
            saved
        } else {
            0
        };
        ticket_for_task.fulfill(result);
        result
    });
    ticket
}

/// Spawns a print of `message` at `compress` priority (print and compress
/// share a level in the paper's assignment), coordinating through the slot.
pub fn print_message(rt: &Arc<Runtime>, message: Arc<Message>) -> IFuture<u64> {
    let compress = rt.priority_by_name("compress").expect("level exists");
    let rt2 = Arc::clone(rt);
    let ticket: IFuture<u64> = IFuture::detached(compress);
    let ticket_for_task = ticket.clone();
    let previous = claim_slot(&message, ticket.clone());
    rt.fcreate(compress, move || {
        if let Some(prev) = previous {
            let _ = rt2.ftouch(&prev);
        }
        // "Printing" = producing the uncompressed text and checksumming it.
        let text = {
            let compressed = message.compressed.lock();
            match compressed.as_ref() {
                Some((packed, bits)) => {
                    let body = message.body.lock();
                    if body.is_empty() {
                        // Body was dropped after compression: decode.
                        let code = HuffmanCode::build(b"placeholder");
                        drop(code);
                        format!("<compressed {} bits>", bits)
                    } else {
                        let _ = packed;
                        body.clone()
                    }
                }
                None => message.body.lock().clone(),
            }
        };
        let sum = text.bytes().map(u64::from).sum::<u64>();
        ticket_for_task.fulfill(sum);
        sum
    });
    ticket
}

/// The whole email application state: one mailbox per user.
#[derive(Debug)]
pub struct EmailState {
    /// Per-user mailboxes.
    pub mailboxes: Vec<Mailbox>,
}

impl EmailState {
    /// Builds `users` mailboxes with `messages_per_user` generated messages.
    pub fn generate(users: usize, messages_per_user: usize, seed: u64) -> Arc<Self> {
        let mut generator = EmailGenerator::new(seed);
        let mailboxes = (0..users)
            .map(|_| Mailbox::new(generator.mailbox(messages_per_user, 30, 120)))
            .collect();
        Arc::new(EmailState { mailboxes })
    }
}

/// Spawns the background checker that fires off compression of every
/// mailbox (shared by both load modes).
fn spawn_checker(rt: &Arc<Runtime>, state: &Arc<EmailState>) {
    let check = rt.priority_by_name("check").expect("level exists");
    let rt_check = Arc::clone(rt);
    let state_check = Arc::clone(state);
    rt.fcreate(check, move || {
        for mailbox in &state_check.mailboxes {
            for i in 0..mailbox.len() {
                let _ = compress_message(&rt_check, mailbox.message(i));
            }
        }
    });
}

/// The request-path priority levels, resolved once per run so the
/// per-request issue path does no name lookups.
#[derive(Debug, Clone, Copy)]
struct RequestLevels {
    event: rp_priority::Priority,
    send: rp_priority::Priority,
    sort: rp_priority::Priority,
}

impl RequestLevels {
    fn resolve(rt: &Runtime) -> Self {
        RequestLevels {
            event: rt.priority_by_name("event").expect("level exists"),
            send: rt.priority_by_name("send").expect("level exists"),
            sort: rt.priority_by_name("sort").expect("level exists"),
        }
    }
}

/// Issues the `i`-th client request: the event loop dispatches to
/// send / sort / print components and replies with what the user needs
/// (send confirmation, mailbox size, or the print acknowledgement).
/// Shared by the closed- and open-loop drivers so the request mix is
/// identical across modes; `levels` is resolved once per run so this
/// per-request path does no name lookups.
fn issue_request_at(
    rt: &Arc<Runtime>,
    state: &Arc<EmailState>,
    i: usize,
    levels: RequestLevels,
) -> IFuture<u64> {
    let RequestLevels { event, send, sort } = levels;
    let users = state.mailboxes.len();
    let user = i % users;
    let rt2 = Arc::clone(rt);
    let state2 = Arc::clone(state);
    rt.fcreate(event, move || {
        let mailbox = &state2.mailboxes[user];
        match i % 3 {
            0 => {
                // Send: simulated SMTP I/O plus a light body checksum at
                // `send` priority.
                let io = rt2.submit_io(event, move || 1u64);
                let body_sum = {
                    let msg = mailbox.message(i % mailbox.len());
                    let body = msg.body.lock();
                    body.bytes().map(u64::from).sum::<u64>()
                };
                let _ = rt2.fcreate(send, move || body_sum);
                rt2.ftouch(&io) + body_sum % 97
            }
            1 => {
                // Sort the mailbox by length at `sort` priority and wait
                // for the result (sort outranks event? no — event
                // outranks sort, so the event loop only *spawns* it and
                // replies immediately with the count, as the paper's
                // event loop does for slow operations).
                let lengths: Vec<usize> = (0..mailbox.len())
                    .map(|j| mailbox.message(j).body.lock().len())
                    .collect();
                let _ = rt2.fcreate(sort, move || {
                    let mut l = lengths;
                    l.sort_unstable();
                    l.last().copied().unwrap_or(0) as u64
                });
                mailbox.len() as u64
            }
            _ => {
                // Print: the event loop only *fires off* the print (it
                // runs at a lower priority, so touching it here would be
                // the very inversion the type system forbids) and
                // acknowledges the request; the print itself coordinates
                // with any in-flight compression through the slot.
                let msg = mailbox.message(i % mailbox.len());
                let _printed = print_message(&rt2, msg);
                mailbox.message(i % mailbox.len()).body.lock().len() as u64
            }
        }
    })
}

/// Drives the email workload on one runtime and returns client-observed
/// response times for the event-loop requests.
pub fn drive_clients(
    rt: &Arc<Runtime>,
    state: &Arc<EmailState>,
    config: &ExperimentConfig,
) -> LatencyStats {
    let mut stats = LatencyStats::new();
    let total = config.connections * config.requests_per_connection;
    let levels = RequestLevels::resolve(rt);
    spawn_checker(rt, state);
    for i in 0..total {
        let started = Instant::now();
        let request = issue_request_at(rt, state, i, levels);
        let _ = rt.ftouch_blocking(&request);
        stats.record(started.elapsed());
    }
    rt.drain(Duration::from_secs(10));
    stats
}

/// Open-loop variant of [`drive_clients`]: the same request mix, injected
/// at seeded Poisson arrival times instead of being paced by replies.
pub fn drive_clients_open(
    rt: &Arc<Runtime>,
    state: &Arc<EmailState>,
    config: &ExperimentConfig,
    open: &OpenLoopConfig,
) -> OpenLoopOutcome {
    let levels = RequestLevels::resolve(rt);
    spawn_checker(rt, state);
    drive_open_loop(open, config.seed, |i| {
        issue_request_at(rt, state, i, levels)
    })
}

/// Runs the email workload in the mode `config.mode` selects.
pub fn drive(
    rt: &Arc<Runtime>,
    state: &Arc<EmailState>,
    config: &ExperimentConfig,
) -> LatencyStats {
    match config.mode {
        LoadMode::Closed => drive_clients(rt, state, config),
        LoadMode::Open(open) => {
            let outcome = drive_clients_open(rt, state, config, &open);
            outcome.warn_if_lossy("email");
            rt.drain(Duration::from_secs(10));
            outcome.latency
        }
    }
}

/// Runs the email workload once on the I-Cilk scheduler with execution
/// tracing on — the `--trace` mode of the closed- and open-loop harness
/// paths — and checks Theorem 2.3 against the reconstructed cost graph.
/// The print/compress coordination tickets are detached futures and thus
/// untraced: their orderings simply contribute no edges.
///
/// # Errors
///
/// Returns a [`TraceHarvestError`] when the trace cannot be reconstructed.
pub fn run_traced(config: &ExperimentConfig) -> Result<TraceRunReport, TraceHarvestError> {
    let config = config.clone().traced();
    let rt = Arc::new(config.start_runtime(SchedulerKind::ICilk, &LEVELS));
    let users = config.connections.max(1);
    let state = EmailState::generate(users, 6, config.seed);
    // `drive` ends with a drain in both load modes, so the snapshot below
    // sees only completed tasks.
    let _client = drive(&rt, &state, &config);
    let report = collect_trace(&rt);
    crate::harness::shutdown_runtime(rt, Duration::from_secs(10));
    report
}

/// Runs the email case study on both schedulers and reports the comparison.
pub fn run_experiment(config: &ExperimentConfig) -> ExperimentReport {
    let mut reports = Vec::new();
    for scheduler in [SchedulerKind::ICilk, SchedulerKind::Baseline] {
        let rt = Arc::new(config.start_runtime(scheduler, &LEVELS));
        let users = config.connections.max(1);
        let state = EmailState::generate(users, 6, config.seed);
        let client = drive(&rt, &state, config);
        reports.push(run_report(scheduler, &rt, &LEVELS, client));
        crate::harness::shutdown_runtime(rt, Duration::from_secs(10));
    }
    let baseline = reports.pop().expect("two runs");
    let icilk = reports.pop().expect("two runs");
    ExperimentReport {
        app: "email".into(),
        config: config.clone(),
        icilk,
        baseline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_sim::latency::LatencyModel;

    #[test]
    fn huffman_roundtrip_and_compression() {
        let text = b"abracadabra abracadabra abracadabra";
        let code = HuffmanCode::build(text).unwrap();
        let (packed, bits) = code.encode(text);
        assert!(bits < text.len() * 8, "huffman compresses repetitive text");
        assert_eq!(code.decode(&packed, bits), text.to_vec());
        assert!(code.alphabet_size() >= 5);
    }

    #[test]
    fn huffman_single_symbol_and_empty() {
        assert!(HuffmanCode::build(b"").is_none());
        let code = HuffmanCode::build(b"aaaa").unwrap();
        let (packed, bits) = code.encode(b"aaaa");
        assert_eq!(bits, 4);
        assert_eq!(code.decode(&packed, bits), b"aaaa".to_vec());
    }

    #[test]
    fn mailbox_construction() {
        let mb = Mailbox::new(vec!["one two".into(), "three".into()]);
        assert_eq!(mb.len(), 2);
        assert!(!mb.is_empty());
        assert_eq!(*mb.message(1).body.lock(), "three");
    }

    fn small_config() -> ExperimentConfig {
        ExperimentConfig {
            workers: 2,
            connections: 3,
            requests_per_connection: 4,
            io_latency: LatencyModel::Constant { micros: 200 },
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn compress_then_print_coordinate_through_the_slot() {
        let config = small_config();
        let rt = Arc::new(config.start_runtime(SchedulerKind::ICilk, &LEVELS));
        let state = EmailState::generate(1, 1, 7);
        let msg = state.mailboxes[0].message(0);
        let c = compress_message(&rt, Arc::clone(&msg));
        let p = print_message(&rt, Arc::clone(&msg));
        // Both complete; the print waited for the compression.
        let _ = rt.ftouch_blocking(&c);
        let _ = rt.ftouch_blocking(&p);
        assert!(msg.compressed.lock().is_some());
        // The spawned tasks hold clones of the runtime handle until their
        // closures finish; drain first, then wait to become the sole owner.
        assert!(rt.drain(Duration::from_secs(5)));
        crate::harness::shutdown_runtime(rt, Duration::from_secs(5));
    }

    /// Documents a known scheduler limitation (see ROADMAP): when three or
    /// more compressions of the *same* message are in flight, the slot
    /// chain can deadlock under work-helping.  A task suspended in
    /// `ftouch(previous)` helps by popping queued tasks onto its own
    /// stack; if the popped task is a later compress of the same message,
    /// it touches the suspended task's ticket — which can never be
    /// fulfilled, because its producer is buried beneath it on the same
    /// stack.  Chains of length ≤ 2 cannot wedge (the predecessor is a
    /// leaf task), which is why the coordinate-through-the-slot test above
    /// is safe.  Run with `--ignored` to observe the hang (it is
    /// probabilistic; repeat a few times).
    #[test]
    #[ignore = "known work-helping deadlock on slot chains of length >= 3"]
    fn same_message_compress_storm_documents_the_helping_deadlock() {
        let config = small_config();
        let rt = Arc::new(config.start_runtime(SchedulerKind::ICilk, &LEVELS));
        let compress = rt.priority_by_name("compress").expect("level exists");
        let mailboxes: Vec<_> = (0..6)
            .map(|_| Arc::new(Mailbox::new(vec!["the quick brown fox ".repeat(64); 1])))
            .collect();
        for _ in 0..50 {
            let outers: Vec<_> = (0..24)
                .map(|i| {
                    let rt2 = Arc::clone(&rt);
                    let mb = Arc::clone(&mailboxes[i % 6]);
                    rt.fcreate(compress, move || {
                        let t = compress_message(&rt2, mb.message(0));
                        rt2.ftouch(&t)
                    })
                })
                .collect();
            for o in &outers {
                rt.ftouch_blocking(o);
            }
        }
    }

    #[test]
    fn experiment_runs_on_both_schedulers() {
        let report = run_experiment(&small_config());
        assert_eq!(report.icilk.levels.len(), 6);
        assert!(report.icilk.client_response.count() > 0);
        assert!(report.baseline.client_response.count() > 0);
        assert!(!report.figure14_rows().is_empty());
    }
}
