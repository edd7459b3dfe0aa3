//! One pass of `serve-mix`: a fresh in-process `Server` on `127.0.0.1:0`,
//! one client, one request in flight; op = `POST /runs` → read
//! `GET /runs/:id/stream` to the terminal line, in the fixed pattern
//! *miss A, miss B, hit A*.

use crate::sim::PassResult;
use crate::speed::{Pacer, Reference};
use crate::trace::{self, Tracer};
use crate::workloads::{Kind, Workload};
use brace::common::DetRng;
use brace::scenario::{Registry, Runner};
use brace_serve::{Json, ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The three served scenarios: two BRASIL scripts (compiled per request)
/// and one hand-coded model with a non-local effect.
pub const SCENARIOS: [&str; 3] = ["brasil-fish", "brasil-car", "epidemic"];

#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    pub scenario: &'static str,
    pub seed: u64,
    /// Whether this request repeats an earlier job of the pass.
    pub hit: bool,
}

/// The op sequence of one pass: `warmup + ops` requests, triples of
/// *miss A, miss B, hit A*. Job seeds derive from the workload seed and are
/// distinct, so a "miss" can never be answered from the cache.
pub fn plan(w: &Workload, seed: u64) -> Vec<Job> {
    let mut rng = DetRng::seed_from_u64(seed).stream(0x5E47E);
    let mut jobs = Vec::with_capacity(w.warmup + w.ops);
    for i in 0..(w.warmup + w.ops).div_ceil(3) {
        // 48-bit seeds: the API carries numbers as f64.
        let (a, b) = (rng.next_raw() >> 16, rng.next_raw() >> 16);
        let (sa, sb) = (SCENARIOS[i % 3], SCENARIOS[(i + 1) % 3]);
        jobs.push(Job { scenario: sa, seed: a, hit: false });
        jobs.push(Job { scenario: sb, seed: b, hit: false });
        jobs.push(Job { scenario: sa, seed: a, hit: true });
    }
    jobs.truncate(w.warmup + w.ops);
    jobs
}

/// Timings and payload of one request, as the client saw it.
#[derive(Debug, Clone, Default)]
pub struct Exchange {
    pub total_ms: f64,
    pub post_ack_ms: f64,
    pub first_frame_ms: f64,
    pub stream_bytes: usize,
    pub agent_ticks: u64,
    pub checksum: u64,
    pub cached: bool,
}

#[derive(Default)]
pub struct ServeTrace {
    /// One per measured op, in op order.
    pub exchanges: Vec<Exchange>,
    pub jobs: Vec<Job>,
    /// `/stats` at the end of the pass.
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub rejected_503: u64,
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// One fixed-length exchange (the server closes after every response).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = connect(addr).map_err(io)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).map_err(io)?;
    stream.write_all(body.as_bytes()).map_err(io)?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(io)?;
    let (head, payload) = raw.split_once("\r\n\r\n").ok_or_else(|| format!("{method} {path}: no response head"))?;
    let status = head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or("bad status line")?;
    Ok((status, payload.to_string()))
}

/// Read a chunked NDJSON stream to its end; returns the lines, the bytes of
/// the decoded body and the time the first chunk arrived.
fn read_stream(addr: SocketAddr, id: &str) -> Result<(Vec<String>, usize, Instant), String> {
    let io = |e: std::io::Error| format!("stream {id}: {e}");
    let mut stream = connect(addr).map_err(io)?;
    let head = format!("GET /runs/{id}/stream HTTP/1.1\r\nHost: perfbench\r\nContent-Length: 0\r\n\r\n");
    stream.write_all(head.as_bytes()).map_err(io)?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(io)?;
    if line.split_whitespace().nth(1) != Some("200") {
        return Err(format!("stream {id}: {}", line.trim()));
    }
    while line != "\r\n" {
        line.clear();
        if reader.read_line(&mut line).map_err(io)? == 0 {
            return Err(format!("stream {id}: head cut short"));
        }
    }
    let (mut body, mut first) = (Vec::new(), None);
    loop {
        line.clear();
        reader.read_line(&mut line).map_err(io)?;
        let size = usize::from_str_radix(line.trim(), 16).map_err(|e| format!("stream {id}: chunk size: {e}"))?;
        if size == 0 {
            break;
        }
        let at = body.len();
        body.resize(at + size + 2, 0);
        reader.read_exact(&mut body[at..]).map_err(io)?;
        body.truncate(at + size);
        first.get_or_insert_with(Instant::now);
    }
    let text = String::from_utf8(body).map_err(|e| format!("stream {id}: {e}"))?;
    let first = first.ok_or_else(|| format!("stream {id}: empty"))?;
    Ok((text.lines().map(str::to_string).collect(), text.len(), first))
}

fn parse_checksum(doc: &Json) -> Option<u64> {
    let s = doc.get("checksum")?.as_str()?;
    u64::from_str_radix(s.trim_start_matches("0x").trim_start_matches("0X"), 16).ok()
}

/// `POST /runs` then stream to the terminal line. `Err` is a failed op.
pub fn exchange(addr: SocketAddr, job: &Job, agents: usize, ticks: u64) -> Result<Exchange, String> {
    let body =
        format!("{{\"scenario\":\"{}\",\"ticks\":{ticks},\"agents\":{agents},\"seed\":{}}}", job.scenario, job.seed);
    let t0 = Instant::now();
    let (status, reply) = request(addr, "POST", "/runs", &body)?;
    let acked = Instant::now();
    if !(200..300).contains(&status) {
        return Err(format!("POST /runs: {status} {reply}"));
    }
    let reply = Json::parse(&reply).map_err(|e| format!("POST /runs reply: {e}"))?;
    let id = reply.get("run_id").and_then(Json::as_str).ok_or("POST /runs reply names no run_id")?;
    let (lines, stream_bytes, first) = read_stream(addr, id)?;
    let done = Instant::now();

    let last = Json::parse(lines.last().ok_or("empty stream")?).map_err(|e| format!("terminal line: {e}"))?;
    if last.get("status").and_then(Json::as_str) != Some("done") {
        return Err(format!("run {id} did not finish: {}", lines.last().expect("checked non-empty")));
    }
    let mut agent_ticks = 0;
    for frame in &lines[..lines.len() - 1] {
        let frame = Json::parse(frame).map_err(|e| format!("frame: {e}"))?;
        agent_ticks += frame.get("agents").and_then(Json::as_u64).ok_or("frame carries no agent count")?;
    }
    Ok(Exchange {
        total_ms: (done - t0).as_secs_f64() * 1e3,
        post_ack_ms: (acked - t0).as_secs_f64() * 1e3,
        first_frame_ms: (first - t0).as_secs_f64() * 1e3,
        stream_bytes,
        agent_ticks,
        checksum: parse_checksum(&last).ok_or("terminal line carries no checksum")?,
        cached: last.get("cached").and_then(Json::as_bool).unwrap_or(false),
    })
}

/// The same job through `Runner` in this process: the checksum every
/// streamed result must equal.
pub fn direct_checksum(registry: &Registry, job: &Job, agents: usize, ticks: u64) -> Result<u64, String> {
    let scenario = registry.get(job.scenario).ok_or("unknown scenario")?;
    let report = Runner::new(scenario).seed(job.seed).population(agents).run(ticks).map_err(|e| e.to_string())?;
    Ok(report.checksum)
}

pub fn run_pass(
    w: &Workload,
    seed: u64,
    reference: &Reference,
    mut trace: Option<(&mut Tracer, &mut ServeTrace)>,
) -> PassResult {
    let Kind::Serve { agents, ticks } = w.kind else { unreachable!("run_pass takes serve-mix") };
    let jobs = plan(w, seed);
    let mut out = PassResult { check_ok: true, ..PassResult::default() };

    // ---- set-up: boot + warm-up requests ----------------------------------
    let pass_span = trace::begin(&mut trace, "pass", None, None);
    let mut pacer = Pacer::start(reference);
    let span = trace::begin(&mut trace, "serve.boot", pass_span, None);
    let t0 = Instant::now();
    let cfg = ServeConfig { workers: 1, queue_cap: 8, cache_cap: 64, ..ServeConfig::default() };
    let server = match Server::start(Registry::builtin(), cfg) {
        Ok(s) => s,
        Err(e) => return out.fail(format!("server boot: {e}"), w.ops),
    };
    let addr = server.addr();
    out.launch_ms = t0.elapsed().as_secs_f64() * 1e3;
    trace::end(&mut trace, span);
    let span = trace::begin(&mut trace, "scenario.warmup", pass_span, None);
    // Like the measured ops, set-up is normalised triple by triple (the
    // boot rides with the first).
    let mut segment_ms = out.launch_ms;
    for triple in jobs[..w.warmup].chunks(3) {
        let t0 = Instant::now();
        for job in triple {
            if let Err(e) = exchange(addr, job, agents, ticks) {
                return out.fail(format!("warm-up: {e}"), w.ops);
            }
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        out.warmup_ms += ms;
        out.norm_setup_ms += (segment_ms + ms) / pacer.close();
        segment_ms = 0.0;
    }
    if segment_ms > 0.0 {
        out.norm_setup_ms += segment_ms / pacer.close(); // no warm-up: the boot alone
    }
    trace::end(&mut trace, span);

    // ---- measured ops -----------------------------------------------------
    for (k, job) in jobs[w.warmup..].iter().enumerate() {
        let span = trace::begin(&mut trace, "serve.request", pass_span, Some(k as u32));
        let t0 = Instant::now();
        let r = exchange(addr, job, agents, ticks);
        out.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        trace::end(&mut trace, span);
        // One reference call per triple: a hit lasts a millisecond, the
        // reference kernel thirteen.
        if (k + 1) % 3 == 0 || k + 1 == w.ops {
            let slow = pacer.close();
            out.slow.resize(out.op_ms.len(), slow);
        }
        match r {
            Ok(x) => {
                out.agent_ticks += x.agent_ticks;
                out.checksums.push(x.checksum);
                if x.cached != job.hit {
                    out.check_ok = false;
                    out.errors.push(format!("op {k}: cached={} but the plan says hit={}", x.cached, job.hit));
                }
                if let Some((t, st)) = trace.as_mut() {
                    // The client side of the exchange, as children of the op.
                    let (span, at) = (span.expect("span opened"), t.spans[span.expect("span opened")].start_ns);
                    let ns = |ms: f64| (ms * 1e6) as u64;
                    t.add("serve.post_ack", at, ns(x.post_ack_ms), Some(span), Some(k as u32));
                    t.add(
                        "serve.stream",
                        at + ns(x.post_ack_ms),
                        ns(x.total_ms - x.post_ack_ms),
                        Some(span),
                        Some(k as u32),
                    );
                    st.exchanges.push(x);
                }
            }
            Err(e) => {
                out.failed += 1;
                out.checksums.push(0);
                out.errors.push(format!("op {k}: {e}"));
                if let Some((_, st)) = trace.as_mut() {
                    st.exchanges.push(Exchange::default());
                }
            }
        }
    }

    // ---- collect: the server's own counters -------------------------------
    let t0 = Instant::now();
    match request(addr, "GET", "/stats", "").and_then(|(_, body)| Json::parse(&body)) {
        Ok(stats) => {
            let cache = |k: &str| stats.get("cache").and_then(|c| c.get(k)).and_then(Json::as_u64).unwrap_or(0);
            let (hits, misses) = (cache("hits"), cache("misses"));
            let rejected = stats.get("rejected_saturated").and_then(Json::as_u64).unwrap_or(0);
            let want_hits = jobs.iter().filter(|j| j.hit).count() as u64;
            if out.failed == 0 && (hits != want_hits || hits + misses != jobs.len() as u64 || rejected != 0) {
                out.check_ok = false;
                out.errors
                    .push(format!("/stats: {hits} hits, {misses} misses, {rejected} rejected; want {want_hits} hits"));
            }
            if let Some((_, st)) = trace.as_mut() {
                (st.cache_hits, st.cache_misses, st.rejected_503) = (hits, misses, rejected);
            }
        }
        Err(e) => {
            out.check_ok = false;
            out.errors.push(format!("GET /stats: {e}"));
        }
    }
    out.collect_ms = t0.elapsed().as_secs_f64() * 1e3;
    server.shutdown();
    trace::end(&mut trace, pass_span);
    if let Some((_, st)) = trace.as_mut() {
        st.jobs = jobs[w.warmup..].to_vec();
    }

    // A hit must replay the very bits of the miss it repeats.
    let measured = &jobs[w.warmup..];
    for (k, job) in measured.iter().enumerate().filter(|(_, j)| j.hit) {
        let miss = measured[..k].iter().rposition(|j| !j.hit && j.seed == job.seed && j.scenario == job.scenario);
        if let Some(m) = miss {
            if out.checksums[m] != out.checksums[k] {
                out.check_ok = false;
                out.errors.push(format!("op {k}: hit checksum differs from its miss (op {m})"));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn plan_is_miss_miss_hit_with_distinct_seeds() {
        let w = workloads::find("serve-mix").unwrap();
        let jobs = plan(w, 42);
        assert_eq!(jobs.len(), w.warmup + w.ops);
        assert_eq!(jobs, plan(w, 42));
        assert_ne!(jobs, plan(w, 43));
        for t in jobs.chunks(3) {
            assert!(!t[0].hit && !t[1].hit && t[2].hit);
            assert_eq!((t[0].scenario, t[0].seed), (t[2].scenario, t[2].seed));
            assert_ne!(t[0].scenario, t[1].scenario);
        }
        let mut seeds: Vec<u64> = jobs.iter().filter(|j| !j.hit).map(|j| j.seed).collect();
        assert!(seeds.iter().all(|&s| s < 1 << 53));
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), jobs.len() / 3 * 2);
    }
}
