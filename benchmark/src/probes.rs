//! Direct-call probes of single layers, run by every traced run after its
//! windows.  Each probe calls public functions of one crate in a tight
//! loop and reports the median of five batches, so a change to a layer
//! shows here before (and whether or not) it shows end to end.

use crate::forkjoin::{self, FloodSystem};
use crate::gen;
use crate::json::Metric;
use crate::lambda::pipeline_config;
use crate::rig::{self, probe_ns};
use crate::wire;
use crate::RunCfg;
use bytes::Bytes;
use rp_apps::harness::{take_socket_frame, write_socket_frame};
use rp_apps::jserver::JobClass;
use rp_apps::{email, proxy};
use rp_icilk::runtime::{Runtime, RuntimeConfig};
use rp_lambda4i::compile::compile_and_run;
use rp_lambda4i::parse::parse_program;
use rp_lambda4i::pipeline::CompileCache;
use rp_lambda4i::run::run_program;
use rp_lambda4i::typecheck::infer_program;
use rp_net::protocol::{decode_request, encode_request};
use rp_net::server::{NetServer, LEVELS as NET_LEVELS};
use rp_priority::Priority;
use rp_sim::histogram::LogHistogram;
use rp_sim::latency::LatencyModel;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batches per probe; the median is reported.
const BATCHES: usize = 5;
/// Shortest batch.
const BATCH_TIME: Duration = Duration::from_millis(20);

fn quick(min_calls: u64, f: impl FnMut()) -> f64 {
    probe_ns(BATCHES, min_calls, BATCH_TIME, f)
}

/// Median nanoseconds per iteration of `body`, run `BATCHES` times as one
/// task of `inner` iterations at priority `p`, so that the iterations run
/// on a worker (where `ftouch` helps instead of parking) and the driver's
/// wake-up is paid once per batch.
fn in_task_ns(
    rt: &Arc<Runtime>,
    p: Priority,
    inner: u64,
    body: impl Fn(&Arc<Runtime>, u64) + Send + Sync + 'static,
) -> f64 {
    let body = Arc::new(body);
    let mut per_iter = Vec::with_capacity(BATCHES);
    for b in 0..BATCHES as u64 {
        let (rt2, body) = (Arc::clone(rt), Arc::clone(&body));
        let root = rt.fcreate(p, move || {
            let start = Instant::now();
            for i in 0..inner {
                body(&rt2, b * inner + i);
            }
            start.elapsed().as_nanos() as f64 / inner as f64
        });
        per_iter.push(rt.ftouch_blocking(&root));
    }
    rig::median(&per_iter)
}

fn net_probes(seed: u64, out: &mut Vec<Metric>) {
    let pool = gen::page_pool(seed);
    let requests: Vec<_> = pool.iter().map(|(url, _)| gen::hit_request(url)).collect();
    let bodies: Vec<Vec<u8>> = requests.iter().map(encode_request).collect();
    let mut i = 0usize;
    let encode = quick(10_000, || {
        black_box(encode_request(black_box(&requests[i % requests.len()])));
        i += 1;
    });
    let decode = quick(10_000, || {
        black_box(decode_request(black_box(&bodies[i % bodies.len()])).is_ok());
        i += 1;
    });
    out.push(Metric::new("net.encode_ns_per_req", encode, "ns"));
    out.push(Metric::new("net.decode_ns_per_req", decode, "ns"));

    // What `NetServer::start` adds in threads, and what it burns with two
    // connections open and nothing to do.
    let threads_before = rig::thread_count();
    if let Ok(server) = NetServer::start(wire::server_config(seed, false)) {
        let conns: Vec<_> = (0..2)
            .filter_map(|_| wire::WireClient::connect(server.addr()).ok())
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        let threads = rig::thread_count() - threads_before;
        let (cpu0, t0) = (rig::live_threads_cpu_ms(), Instant::now());
        std::thread::sleep(Duration::from_millis(400));
        let idle = (rig::live_threads_cpu_ms() - cpu0) / t0.elapsed().as_secs_f64();
        out.push(Metric::new("net.idle_cpu_ms_per_s", idle, "ms/s"));
        out.push(Metric::new("net.threads", threads as f64, "count"));
        drop(conns);
        server.shutdown();
    }
}

fn icilk_probes(seed: u64, out: &mut Vec<Metric>) {
    let rt = forkjoin::start_runtime(false);
    let bottom = rt.priority_by_index(0).expect("level 0");
    let top = rt.priority_by_index(forkjoin::LEVELS - 1).expect("top");
    let pair = in_task_ns(&rt, bottom, 20_000, move |rt, i| {
        let f = rt.fcreate(bottom, move || i);
        black_box(rt.ftouch(&f));
    });
    let ready = rt.fcreate(bottom, || 7u64);
    let _ = rt.ftouch_blocking(&ready);
    let touch = in_task_ns(&rt, bottom, 200_000, move |rt, _| {
        black_box(rt.ftouch(&ready));
    });
    out.push(Metric::new("icilk.fcreate_ftouch_ns", pair, "ns"));
    out.push(Metric::new("icilk.touch_ready_ns", touch, "ns"));

    // From outside the runtime, nothing else running: a top-level task and
    // a zero-latency I/O, each waited for by the caller.
    let (mut ping, mut io) = (LogHistogram::new(), LogHistogram::new());
    for k in 0..400u64 {
        let start = Instant::now();
        let f = rt.fcreate(top, move || k);
        black_box(rt.ftouch_blocking(&f));
        ping.record(start.elapsed().as_nanos() as u64);
        let start = Instant::now();
        let f = rt.submit_io_now(top, move || k);
        black_box(rt.ftouch_blocking(&f));
        io.record(start.elapsed().as_nanos() as u64);
    }
    let p50_us = |h: &LogHistogram| h.percentile(50.0).unwrap_or(0.0) / 1e3;
    out.push(Metric::new("icilk.ping_idle_p50_us", p50_us(&ping), "us"));
    out.push(Metric::new("icilk.io_roundtrip_p50_us", p50_us(&io), "us"));
    forkjoin::stop_runtime(rt);

    // Flood rate with the tracer on against off, alternating batches.
    let mut plain = FloodSystem::start(seed, false, 20);
    let mut traced = FloodSystem::start(seed, true, 20);
    let (mut u, mut t) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        u.push(plain.pairs_per_s(40));
        t.push(traced.pairs_per_s(40));
    }
    let (u, t) = (rig::median(&u), rig::median(&t));
    out.push(Metric::new(
        "icilk.tracer_overhead_pct",
        (u - t) / u * 100.0,
        "%",
    ));
    plain.stop();
    traced.stop();
}

fn apps_probes(seed: u64, out: &mut Vec<Metric>) {
    let rt = Arc::new(Runtime::start(
        RuntimeConfig::new(2, NET_LEVELS.len())
            .with_level_names(NET_LEVELS)
            .with_io_latency(LatencyModel::Constant { micros: 300 }, seed),
    ));
    let main = rt.priority_by_name("main").expect("main level");
    let pool = Arc::new(gen::page_pool(seed));
    let state = proxy::ProxyState::new();
    for (url, page) in pool.iter() {
        state.insert(url.clone(), page.clone());
    }
    let (st, pl) = (Arc::clone(&state), Arc::clone(&pool));
    let hit = in_task_ns(&rt, main, 5_000, move |rt, i| {
        let url = pl[i as usize % pl.len()].0.clone();
        black_box(rt.ftouch(&proxy::handle_request(rt, &st, url, Bytes::new())));
    });
    let (st, pl) = (Arc::clone(&state), Arc::clone(&pool));
    let miss = in_task_ns(&rt, main, 40, move |rt, i| {
        let url = format!("http://probe.example/{i}");
        let page = pl[i as usize % pl.len()].1.clone();
        black_box(rt.ftouch(&proxy::handle_request(rt, &st, url, page)));
    });
    let mail = email::EmailState::generate(gen::EMAIL_USERS, gen::EMAIL_MESSAGES, seed);
    let message = move |mail: &email::EmailState, i: u64| {
        let user = i as usize / gen::EMAIL_MESSAGES % gen::EMAIL_USERS;
        mail.mailboxes[user].message(i as usize % gen::EMAIL_MESSAGES)
    };
    let m = Arc::clone(&mail);
    let print = in_task_ns(&rt, main, 2_000, move |rt, i| {
        black_box(rt.ftouch(&email::print_message(rt, message(&m, i))));
    });
    let m = Arc::clone(&mail);
    let compress = in_task_ns(&rt, main, 500, move |rt, i| {
        black_box(rt.ftouch(&email::compress_message(rt, message(&m, i))));
    });
    out.push(Metric::new("apps.proxy_hit_ns", hit, "ns"));
    out.push(Metric::new("apps.proxy_miss_us", miss / 1e3, "us"));
    out.push(Metric::new("apps.email_print_us", print / 1e3, "us"));
    out.push(Metric::new("apps.email_compress_us", compress / 1e3, "us"));
    let _ = rt.drain(Duration::from_secs(10));
    rp_apps::harness::shutdown_runtime(rt, Duration::from_secs(10));

    let mix = JobClass::default_mix();
    let mut k = 0usize;
    for (name, class) in [
        ("apps.jserver_job_us.sort", gen::JOB_SORT),
        ("apps.jserver_job_us.sw", gen::JOB_SW),
    ] {
        let ns = quick(10, || {
            black_box(mix[class as usize].execute(gen::job_seed(seed, k % gen::JOB_SEEDS)));
            k += 1;
        });
        out.push(Metric::new(name, ns / 1e3, "us"));
    }

    let body = encode_request(&gen::hit_request(&pool[0].0));
    let mut buf: Vec<u8> = Vec::with_capacity(256);
    let frame = quick(10_000, || {
        write_socket_frame(&mut buf, 1, &body).expect("writing to memory");
        black_box(take_socket_frame(&mut buf).expect("well-formed").is_some());
    });
    out.push(Metric::new("apps.frame_ns_per_req", frame, "ns"));
}

fn lambda_probes(seed: u64, out: &mut Vec<Metric>) {
    let config = pipeline_config();
    let hot = gen::hot_inputs(seed);
    let programs: Vec<_> = hot
        .iter()
        .filter_map(|h| parse_program(&h.source).ok())
        .collect();
    let inferred: Vec<_> = programs
        .iter()
        .filter_map(|p| infer_program(p).ok())
        .collect();
    if inferred.len() != hot.len() {
        return; // the workload itself reports such sources as failed
    }
    let mut i = 0usize;
    let mut next = || {
        i += 1;
        i % hot.len()
    };
    let us = |name: &str, ns: f64| Metric::new(name, ns / 1e3, "us");
    let parse = quick(50, || {
        black_box(parse_program(&hot[next()].source).is_ok());
    });
    let infer = quick(50, || {
        black_box(infer_program(&programs[next()]).is_ok());
    });
    // The constraints inference defers to the solver are public; the
    // generated family is fully annotated, so this is the solver's floor.
    let solve = quick(50, || {
        let k = next();
        let (p, inf) = (&programs[k], &inferred[k]);
        black_box(rp_priority::solve(&p.domain, &p.free_prio_vars(), &inf.deferred).is_ok());
    });
    let machine = quick(5, || {
        black_box(run_program(&inferred[next()].program, &config.machine).is_ok());
    });
    let mut traces = Vec::new();
    let runtime = quick(5, || {
        if let Ok(outcome) = compile_and_run(&inferred[next()].program, &config.runtime) {
            if traces.len() < hot.len() {
                traces.extend(outcome.trace);
            }
        }
    });
    let start = quick(5, || {
        Runtime::start(RuntimeConfig::new(config.runtime.workers, 1).with_tracing(true)).shutdown();
    });
    let mut t = 0usize;
    let reconstruct = quick(5, || {
        t += 1;
        black_box(traces[t % traces.len().max(1)].reconstruct().is_ok());
    });
    let cache = CompileCache::new();
    for h in &hot {
        let _ = cache.inference(&h.source);
    }
    let hit = quick(1_000, || {
        black_box(cache.inference(&hot[next()].source).is_ok());
    });
    out.extend([
        us("lambda4i.parse_us_per_prog", parse),
        us("lambda4i.infer_us_per_prog", infer),
        us("priority.solve_us_per_prog", solve),
        us("lambda4i.machine_us_per_prog", machine),
        us("lambda4i.runtime_us_per_prog", runtime),
        us("lambda4i.runtime_start_us", start),
        us("lambda4i.reconstruct_us_per_prog", reconstruct),
        us("lambda4i.cache_hit_us", hit),
    ]);
}

/// Every probe, in layer order.
pub fn all(cfg: &RunCfg) -> Vec<Metric> {
    let mut out = Vec::new();
    let start = Instant::now();
    net_probes(cfg.seed, &mut out);
    icilk_probes(cfg.seed, &mut out);
    apps_probes(cfg.seed, &mut out);
    lambda_probes(cfg.seed, &mut out);
    let mut hist = LogHistogram::new();
    let mut v = 1u64;
    let record = quick(100_000, || {
        v = v.wrapping_mul(6364136223846793005).wrapping_add(1) >> 40;
        hist.record(black_box(v));
    });
    out.push(Metric::new("sim.hist_record_ns", record, "ns"));
    out.push(Metric::new(
        "icilk.responsiveness_vs_baseline",
        wire::responsiveness_vs_baseline(cfg.seed),
        "ratio",
    ));
    println!("note probes took {:.1} s", start.elapsed().as_secs_f64());
    out
}
