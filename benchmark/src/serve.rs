//! The two serving workloads: a monitored application talking to an
//! in-process `afta-serve` [`Reactor`] over loopback TCP.
//!
//! * `serve_rounds` — closed loop on one connection: every round, each
//!   of `tenants × streams` streams sends `Observe` then `Ballot`, and
//!   the generator waits for every reply (the `RoundResult` broadcasts
//!   included) before the next round.
//! * `serve_observe` — open loop on two connections: `Observe` only, on
//!   a fixed schedule, each request timed from its due send time.
//!
//! A run is a sequence of whole sessions.  A session binds a fresh
//! reactor with the shipped `ReactorConfig::default()`, connects and
//! registers every tenant (the timed set-up), drives a fixed amount of
//! traffic, reads every tenant's digest and shuts the reactor down.
//! Replies are stored raw while the clock runs and checked afterwards
//! against values computed here from the requests that were sent.

use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use afta_alphacount::{AlphaCount, Judgment};
use afta_serve::tenant::vote_of_n;
use afta_serve::{
    Body, ClientAddr, Enqueued, Frame, Reactor, ReactorConfig, Reply, Request, ServeConfig,
    ServerCore, Tenant, TenantId, TenantQuotas,
};
use afta_telemetry::Registry;

use crate::measure::{self, PollFd, Rng, Tracer, POLLIN};
use crate::Outcome;

/// The ballot range every tenant registers; observations escape it on
/// purpose now and then so clash detection is exercised.
const BALLOT_MIN: i64 = -100;
const BALLOT_MAX: i64 = 100;
/// The out-of-range context value (an Ariane-style magnitude excursion).
const EXCURSION: i64 = 40_000;
/// Give up on a silent server after this long.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Shape of `serve_rounds`.
#[derive(Debug, Clone)]
pub struct RoundsShape {
    pub tenants: u16,
    pub streams: u32,
    /// Rounds per session (each session restarts at round 1).
    pub rounds: u64,
}

impl RoundsShape {
    pub const FULL: RoundsShape = RoundsShape {
        tenants: 8,
        streams: 16,
        rounds: 100,
    };
}

/// Shape of `serve_observe`.
#[derive(Debug, Clone)]
pub struct ObserveShape {
    pub tenants: u16,
    pub streams: u32,
    /// Requests per session.
    pub requests: usize,
    /// Schedule spacing between consecutive requests.
    pub interval: Duration,
}

impl ObserveShape {
    pub const FULL: ObserveShape = ObserveShape {
        tenants: 64,
        streams: 4,
        requests: 6_000,
        interval: Duration::from_micros(110),
    };
}

// ---------------------------------------------------------------------
// Inputs and the independent expectations
// ---------------------------------------------------------------------

fn in_range(value: i64) -> bool {
    (BALLOT_MIN..=BALLOT_MAX).contains(&value)
}

/// A context value: in range, or the excursion with probability 1/16.
fn observe_input(rng: &mut Rng) -> i64 {
    if rng.below(16) == 0 {
        EXCURSION
    } else {
        rng.range(BALLOT_MIN, BALLOT_MAX)
    }
}

/// What a round must report, computed from the ballots alone: the
/// value held by more than `n/2` of the `n` expected voters, its
/// dissent `m = n - count`, and `dtof = ceil(n/2) - m` (0 without a
/// majority).
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectedVote {
    pub value: Option<String>,
    pub dissent: Option<u32>,
    pub dtof: u32,
}

pub fn expected_vote(ballots: &[String], n: usize) -> ExpectedVote {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for b in ballots {
        *counts.entry(b.as_str()).or_default() += 1;
    }
    let best = counts.iter().max_by_key(|(_, &c)| c);
    match best {
        Some((value, &count)) if 2 * count > n => {
            let m = n - count;
            ExpectedVote {
                value: Some((*value).to_string()),
                dissent: Some(m as u32),
                dtof: n.div_ceil(2).saturating_sub(m) as u32,
            }
        }
        _ => ExpectedVote {
            value: None,
            dissent: None,
            dtof: 0,
        },
    }
}

fn push_frame(buf: &mut Vec<u8>, frame: &Frame) {
    let bytes = frame.encode();
    buf.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    buf.extend_from_slice(&bytes);
}

fn register_frames(tenants: u16, expected_clients: u32, filter: impl Fn(u16) -> bool) -> Vec<u8> {
    let mut buf = Vec::new();
    for t in (0..tenants).filter(|&t| filter(t)) {
        push_frame(
            &mut buf,
            &Frame::request(
                TenantId(t),
                0,
                Request::RegisterTenant {
                    expected_clients,
                    mailbox_cap: 0,
                    ballot_min: BALLOT_MIN,
                    ballot_max: BALLOT_MAX,
                },
            ),
        );
    }
    buf
}

fn digest_frames(tenants: u16, filter: impl Fn(u16) -> bool) -> Vec<u8> {
    let mut buf = Vec::new();
    for t in (0..tenants).filter(|&t| filter(t)) {
        push_frame(&mut buf, &Frame::request(TenantId(t), 0, Request::Digest));
    }
    buf
}

/// Every request of one `serve_rounds` session, encoded before the
/// clock starts, plus what the checker needs.
pub struct RoundsInput {
    pub shape: RoundsShape,
    /// `[len][frame]` bytes per (round, tenant): each stream's Observe
    /// then Ballot.
    batches: Vec<Vec<u8>>,
    observes: Vec<i64>,
    ballots: Vec<String>,
    votes: Vec<ExpectedVote>,
    register: Vec<u8>,
    digest: Vec<u8>,
}

impl RoundsInput {
    pub fn new(seed: u64, shape: &RoundsShape) -> Self {
        let mut rng = Rng::new(seed, 0x5E_0001);
        let (t_n, s_n) = (usize::from(shape.tenants), shape.streams as usize);
        let mut observes = Vec::new();
        let mut ballots = Vec::new();
        let mut votes = Vec::new();
        let mut batches = Vec::new();
        for round in 1..=shape.rounds {
            for t in 0..shape.tenants {
                let agreed = rng.range(BALLOT_MIN, BALLOT_MAX);
                let mut batch = Vec::new();
                let first = ballots.len();
                for c in 0..shape.streams {
                    let value = observe_input(&mut rng);
                    let ballot = if rng.below(8) == 0 {
                        format!("v{}", agreed + 1 + rng.range(0, 4))
                    } else {
                        format!("v{agreed}")
                    };
                    let observe = Frame::request(
                        TenantId(t),
                        c,
                        Request::Observe {
                            key: "ballot".into(),
                            value,
                        },
                    );
                    let vote = Frame::request(
                        TenantId(t),
                        c,
                        Request::Ballot {
                            round,
                            value: ballot.clone(),
                        },
                    );
                    push_frame(&mut batch, &observe);
                    push_frame(&mut batch, &vote);
                    observes.push(value);
                    ballots.push(ballot);
                }
                votes.push(expected_vote(&ballots[first..], s_n));
                batches.push(batch);
            }
        }
        debug_assert_eq!(ballots.len(), shape.rounds as usize * t_n * s_n);
        Self {
            register: register_frames(shape.tenants, shape.streams, |_| true),
            digest: digest_frames(shape.tenants, |_| true),
            shape: shape.clone(),
            batches,
            observes,
            ballots,
            votes,
        }
    }

    fn requests(&self) -> u64 {
        self.shape.rounds * u64::from(self.shape.tenants) * u64::from(self.shape.streams) * 2
    }

    fn idx(&self, round: u64, t: u16) -> usize {
        (round as usize - 1) * usize::from(self.shape.tenants) + usize::from(t)
    }
}

// ---------------------------------------------------------------------
// The wire
// ---------------------------------------------------------------------

/// Accumulates socket bytes and slices `[len][frame]` messages.
#[derive(Default)]
struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// Reads once (blocking or not, as the socket is set) and hands
    /// every complete frame to `f`.  Returns bytes read (0 on EOF).
    fn read_some(
        &mut self,
        stream: &mut TcpStream,
        mut f: impl FnMut(&[u8]),
    ) -> std::io::Result<usize> {
        let mut scratch = [0u8; 64 * 1024];
        let n = stream.read(&mut scratch)?;
        self.buf.extend_from_slice(&scratch[..n]);
        let mut start = 0;
        while self.buf.len() - start >= 4 {
            let len = u32::from_be_bytes(self.buf[start..start + 4].try_into().expect("4 bytes"))
                as usize;
            if self.buf.len() - start - 4 < len {
                break;
            }
            f(&self.buf[start + 4..start + 4 + len]);
            start += 4 + len;
        }
        self.buf.drain(..start);
        Ok(n)
    }
}

fn connect(reactor: &Reactor) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(reactor.local_addr())?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    Ok(stream)
}

/// Reads `count` frames (blocking), appending each to `sink` as
/// `[len][frame]`.
fn read_frames(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    count: usize,
    sink: &mut Vec<u8>,
) -> std::io::Result<()> {
    let mut got = 0;
    while got < count {
        let n = reader.read_some(stream, |frame| {
            sink.extend_from_slice(&(frame.len() as u32).to_be_bytes());
            sink.extend_from_slice(frame);
            got += 1;
        })?;
        if n == 0 {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "reactor closed the connection",
            ));
        }
    }
    Ok(())
}

/// Decodes a `[len][frame]...` buffer into reply frames.
fn decode_replies(buf: &[u8], out: &mut Outcome) -> Vec<(TenantId, u32, Reply)> {
    let mut replies = Vec::new();
    let mut at = 0;
    while at + 4 <= buf.len() {
        let len = u32::from_be_bytes(buf[at..at + 4].try_into().expect("4 bytes")) as usize;
        match Frame::decode(&buf[at + 4..at + 4 + len]) {
            Ok(Frame {
                tenant,
                stream,
                body: Body::Reply(reply),
            }) => replies.push((tenant, stream, reply)),
            Ok(other) => out.fail(format!("server sent a non-reply frame {other:?}")),
            Err(e) => out.fail(format!("server sent an undecodable frame: {e}")),
        }
        at += 4 + len;
    }
    replies
}

fn check_registered(buf: &[u8], expected: &[u16], out: &mut Outcome) {
    let replies = decode_replies(buf, out);
    let mut got: Vec<u16> = Vec::new();
    for (tenant, _, reply) in replies {
        match reply {
            Reply::Registered { tenant: t } if t == tenant.0 => got.push(t),
            other => out.fail(format!("registration of {tenant} answered {other:?}")),
        }
    }
    got.sort_unstable();
    if got != expected {
        out.fail(format!("registered tenants {got:?}, expected {expected:?}"));
    }
}

/// Checks the final digests: rounds, observes and clashes as counted
/// from the requests sent, and no rejected request.
fn check_digests(buf: &[u8], expected: &BTreeMap<u16, (u64, u64, u64)>, out: &mut Outcome) {
    let mut seen = 0;
    for (tenant, _, reply) in decode_replies(buf, out) {
        let Reply::Digest(d) = reply else {
            out.fail(format!("digest request of {tenant} answered {reply:?}"));
            continue;
        };
        seen += 1;
        let Some(&(rounds, observes, clashes)) = expected.get(&d.tenant) else {
            out.fail(format!("digest for unknown tenant {}", d.tenant));
            continue;
        };
        if (d.rounds, d.observes, d.clashes, d.rejected) != (rounds, observes, clashes, 0) {
            out.fail(format!(
                "tenant {} digest rounds/observes/clashes/rejected = {}/{}/{}/{}, expected {rounds}/{observes}/{clashes}/0",
                d.tenant, d.rounds, d.observes, d.clashes, d.rejected
            ));
        }
    }
    if seen != expected.len() {
        out.fail(format!("{seen} digests for {} tenants", expected.len()));
    }
}

fn bind(registry: &Registry) -> std::io::Result<Reactor> {
    Reactor::bind(
        "127.0.0.1:0",
        ReactorConfig::default(),
        ServeConfig::default(),
        registry,
    )
}

// ---------------------------------------------------------------------
// serve_rounds
// ---------------------------------------------------------------------

/// One session's raw record.
struct RoundsSession {
    setup_s: f64,
    wall_ns: u64,
    cpu_us: u64,
    latencies_us: Vec<f64>,
    /// End offset in the reply buffer of each round.
    round_ends: Vec<usize>,
    registered: Vec<u8>,
    digests: Vec<u8>,
}

/// Runs one session; the replies land in `replies` (reused across
/// sessions so the generator's own memory stays flat).
fn rounds_session(
    input: &RoundsInput,
    registry: &Registry,
    replies: &mut Vec<u8>,
) -> std::io::Result<RoundsSession> {
    let shape = &input.shape;
    let tenants = usize::from(shape.tenants);
    let per_tenant = shape.streams as usize * 3;
    let per_round = tenants * per_tenant;

    let setup = Instant::now();
    let reactor = bind(registry)?;
    let mut stream = connect(&reactor)?;
    let mut reader = FrameReader::default();
    stream.write_all(&input.register)?;
    let mut registered = Vec::new();
    read_frames(&mut stream, &mut reader, tenants, &mut registered)?;
    let setup_s = setup.elapsed().as_secs_f64();

    replies.clear();
    let mut round_ends = Vec::with_capacity(shape.rounds as usize);
    let mut latencies_us = Vec::with_capacity(shape.rounds as usize * tenants);
    let mut starts = vec![Instant::now(); tenants];
    let mut got = vec![0usize; tenants];
    let cpu0 = measure::process_cpu_us();
    let wall = Instant::now();
    for round in 1..=shape.rounds {
        for t in 0..shape.tenants {
            starts[usize::from(t)] = Instant::now();
            stream.write_all(&input.batches[input.idx(round, t)])?;
        }
        got.iter_mut().for_each(|g| *g = 0);
        let mut remaining = per_round;
        while remaining > 0 {
            let mut done: Vec<usize> = Vec::new();
            let n = reader.read_some(&mut stream, |frame| {
                let t = usize::from(u16::from_be_bytes([frame[0], frame[1]]));
                if let Some(g) = got.get_mut(t) {
                    *g += 1;
                    if *g == per_tenant {
                        done.push(t);
                    }
                }
                replies.extend_from_slice(&(frame.len() as u32).to_be_bytes());
                replies.extend_from_slice(frame);
                remaining = remaining.saturating_sub(1);
            })?;
            if !done.is_empty() {
                let now = Instant::now();
                for t in done {
                    latencies_us.push((now - starts[t]).as_nanos() as f64 / 1e3);
                }
            }
            if n == 0 {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "reactor closed the connection",
                ));
            }
        }
        round_ends.push(replies.len());
    }
    let wall_ns = wall.elapsed().as_nanos() as u64;
    let cpu_us = measure::process_cpu_us() - cpu0;

    stream.write_all(&input.digest)?;
    let mut digests = Vec::new();
    read_frames(&mut stream, &mut reader, tenants, &mut digests)?;
    drop(stream);
    reactor.shutdown();
    Ok(RoundsSession {
        setup_s,
        wall_ns,
        cpu_us,
        latencies_us,
        round_ends,
        registered,
        digests,
    })
}

/// Checks one session's replies against the requests that were sent,
/// one round at a time (`round_ends` splits the buffer): every stream
/// gets exactly one `Observed` (with the right `satisfied`), one
/// `BallotAccepted` and one `RoundResult` carrying the independently
/// computed majority, dissent and dtof.
pub fn check_rounds(input: &RoundsInput, replies: &[u8], round_ends: &[usize], out: &mut Outcome) {
    let shape = &input.shape;
    if round_ends.len() != shape.rounds as usize {
        out.fail(format!(
            "{} rounds completed of {}",
            round_ends.len(),
            shape.rounds
        ));
        return;
    }
    let mut start = 0;
    for (r, &end) in round_ends.iter().enumerate() {
        check_round(input, r as u64 + 1, &replies[start..end], out);
        start = end;
    }
}

fn check_round(input: &RoundsInput, round: u64, replies: &[u8], out: &mut Outcome) {
    let shape = &input.shape;
    let (t_n, s_n) = (usize::from(shape.tenants), shape.streams as usize);
    let r = round as usize - 1;
    // tally[tenant * streams + stream] = (observed, accepted, results)
    let mut tally = vec![[0u8; 3]; t_n * s_n];
    for (tenant, stream, reply) in decode_replies(replies, out) {
        let (t, s) = (usize::from(tenant.0), stream as usize);
        if t >= t_n || s >= s_n {
            out.fail(format!("reply for unknown stream {tenant}/{stream}"));
            continue;
        }
        let slot = t * s_n + s;
        let base = (r * t_n + t) * s_n;
        match reply {
            Reply::Observed { satisfied } => {
                tally[slot][0] += 1;
                let want = in_range(input.observes[base + s]);
                if satisfied != want {
                    out.fail(format!(
                        "round {round} {tenant}/{stream}: satisfied {satisfied}, expected {want}"
                    ));
                }
            }
            Reply::BallotAccepted { round: got } => {
                tally[slot][1] += 1;
                if got != round {
                    out.fail(format!(
                        "round {round} {tenant}/{stream}: accepted round {got}"
                    ));
                }
            }
            Reply::RoundResult(result) => {
                tally[slot][2] += 1;
                let want = &input.votes[input.idx(round, tenant.0)];
                let got = ExpectedVote {
                    value: result.value.clone(),
                    dissent: result.dissent,
                    dtof: result.dtof,
                };
                if result.round != round
                    || result.n != shape.streams
                    || result.ballots != shape.streams
                    || &got != want
                {
                    out.fail(format!(
                        "round {round} {tenant}/{stream}: result {result:?}, expected {want:?}"
                    ));
                }
            }
            other => {
                if matches!(other, Reply::Rejected { .. }) {
                    out.failed += 1;
                }
                out.fail(format!(
                    "round {round} {tenant}/{stream}: unexpected {other:?}"
                ));
            }
        }
    }
    for (slot, counts) in tally.iter().enumerate() {
        if *counts != [1, 1, 1] {
            out.fail(format!(
                "round {round} t{}/{}: observed/accepted/results = {counts:?}, expected one each",
                slot / s_n,
                slot % s_n
            ));
        }
    }
}

fn rounds_digest_expectation(input: &RoundsInput) -> BTreeMap<u16, (u64, u64, u64)> {
    let shape = &input.shape;
    let s_n = shape.streams as usize;
    let mut expected = BTreeMap::new();
    for t in 0..shape.tenants {
        let mut clashes = 0;
        for round in 1..=shape.rounds {
            let base = input.idx(round, t) * s_n;
            clashes += input.observes[base..base + s_n]
                .iter()
                .filter(|&&v| !in_range(v))
                .count() as u64;
        }
        expected.insert(
            t,
            (shape.rounds, shape.rounds * shape.streams as u64, clashes),
        );
    }
    expected
}

fn check_rounds_session(
    input: &RoundsInput,
    session: &RoundsSession,
    replies: &[u8],
    out: &mut Outcome,
) {
    let all: Vec<u16> = (0..input.shape.tenants).collect();
    check_registered(&session.registered, &all, out);
    check_rounds(input, replies, &session.round_ends, out);
    check_digests(&session.digests, &rounds_digest_expectation(input), out);
}

/// `serve_rounds` end to end.
pub fn rounds(seed: u64, budget: Duration, shape: &RoundsShape) -> Outcome {
    let input = RoundsInput::new(seed, shape);
    let mut out = Outcome::default();
    let registry = Registry::new();
    let mut setups = Vec::new();
    let mut latencies = Vec::new();
    let (mut cpu_us, mut wall_ns, mut requests) = (0u64, 0u64, 0u64);
    let mut replies = Vec::new();
    let started = Instant::now();
    while setups.is_empty() || started.elapsed() < budget {
        let session = match rounds_session(&input, &registry, &mut replies) {
            Ok(s) => s,
            Err(e) => {
                out.attempted += input.requests();
                out.failed += input.requests();
                out.fail(format!("session aborted: {e}"));
                break;
            }
        };
        check_rounds_session(&input, &session, &replies, &mut out);
        out.attempted += input.requests();
        setups.push(session.setup_s);
        latencies.push(session.latencies_us);
        cpu_us += session.cpu_us;
        wall_ns += session.wall_ns;
        requests += input.requests();
    }
    out.note(format!(
        "{} sessions of {} rounds; {:.0} requests/s, {:.1} rounds/s",
        setups.len(),
        shape.rounds,
        requests as f64 / (wall_ns as f64 / 1e9),
        (setups.len() as u64 * shape.rounds) as f64 / (wall_ns as f64 / 1e9)
    ));
    out.end_to_end(&mut setups, cpu_us as f64, requests, &mut latencies);
    out
}

// ---------------------------------------------------------------------
// serve_observe
// ---------------------------------------------------------------------

/// Every request of one `serve_observe` session, in schedule order.
pub struct ObserveInput {
    pub shape: ObserveShape,
    /// `[len][frame]` bytes per request.
    frames: Vec<Vec<u8>>,
    tenants: Vec<u16>,
    streams: Vec<u32>,
    values: Vec<i64>,
    register: [Vec<u8>; 2],
    digest: [Vec<u8>; 2],
}

/// Tenants alternate between the two connections.
fn conn_of(tenant: u16) -> usize {
    usize::from(tenant % 2)
}

impl ObserveInput {
    pub fn new(seed: u64, shape: &ObserveShape) -> Self {
        let mut rng = Rng::new(seed, 0x5E_0002);
        let mut input = Self {
            shape: shape.clone(),
            frames: Vec::with_capacity(shape.requests),
            tenants: Vec::with_capacity(shape.requests),
            streams: Vec::with_capacity(shape.requests),
            values: Vec::with_capacity(shape.requests),
            register: [0, 1].map(|c| register_frames(shape.tenants, 1, |t| conn_of(t) == c)),
            digest: [0, 1].map(|c| digest_frames(shape.tenants, |t| conn_of(t) == c)),
        };
        let per = u64::from(shape.tenants) * u64::from(shape.streams);
        for i in 0..shape.requests as u64 {
            let k = i % per;
            let tenant = (k % u64::from(shape.tenants)) as u16;
            let stream = (k / u64::from(shape.tenants)) as u32;
            let value = observe_input(&mut rng);
            let mut buf = Vec::new();
            push_frame(
                &mut buf,
                &Frame::request(
                    TenantId(tenant),
                    stream,
                    Request::Observe {
                        key: "ballot".into(),
                        value,
                    },
                ),
            );
            input.frames.push(buf);
            input.tenants.push(tenant);
            input.streams.push(stream);
            input.values.push(value);
        }
        input
    }
}

struct ObserveSession {
    setup_s: f64,
    cpu_us: u64,
    /// Reply time minus due time, per request (us).
    latencies_us: Vec<f64>,
    /// Reply time minus actual send time, per request (us).
    round_trips_us: Vec<f64>,
    /// Send time minus due time (us).
    lateness_us: Vec<f64>,
    unmatched: usize,
    registered: Vec<u8>,
    digests: Vec<u8>,
}

/// A connection of the open-loop generator: non-blocking, with its own
/// unsent bytes.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    pending: Vec<u8>,
}

impl Conn {
    fn flush(&mut self) -> std::io::Result<()> {
        while !self.pending.is_empty() {
            match self.stream.write(&self.pending) {
                Ok(n) => {
                    self.pending.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Runs one session; replies land in `replies` as `[len][frame]` in
/// arrival order, with the index of the request each answers in
/// `answered` (both reused across sessions).
fn observe_session(
    input: &ObserveInput,
    registry: &Registry,
    replies: &mut Vec<u8>,
    answered: &mut Vec<usize>,
) -> std::io::Result<ObserveSession> {
    let shape = &input.shape;
    let n = shape.requests;

    let setup = Instant::now();
    let reactor = bind(registry)?;
    // Both connections register their tenants at once, then wait.
    let mut conns = Vec::new();
    for c in 0..2 {
        let mut stream = connect(&reactor)?;
        stream.write_all(&input.register[c])?;
        conns.push(Conn {
            stream,
            reader: FrameReader::default(),
            pending: Vec::new(),
        });
    }
    let mut registered = Vec::new();
    for (c, conn) in conns.iter_mut().enumerate() {
        let count = (0..shape.tenants).filter(|&t| conn_of(t) == c).count();
        read_frames(&mut conn.stream, &mut conn.reader, count, &mut registered)?;
        conn.stream.set_nonblocking(true)?;
    }
    let setup_s = setup.elapsed().as_secs_f64();

    let mut queues: BTreeMap<(u16, u32), VecDeque<usize>> = BTreeMap::new();
    let mut sent_at = vec![0u64; n];
    let mut latencies_us = Vec::with_capacity(n);
    let mut round_trips_us = Vec::with_capacity(n);
    let mut lateness_us = Vec::with_capacity(n);
    replies.clear();
    answered.clear();
    let mut unmatched = 0usize;
    let interval = shape.interval.as_nanos() as u64;
    let due = |i: usize| i as u64 * interval;
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();

    let cpu0 = measure::process_cpu_us();
    let start = Instant::now();
    let mut next = 0usize;
    let mut received = 0usize;
    let deadline = Duration::from_nanos(due(n)) + READ_TIMEOUT;
    while received + unmatched < n {
        let now = start.elapsed().as_nanos() as u64;
        if Duration::from_nanos(now) > deadline {
            return Err(std::io::Error::new(
                ErrorKind::TimedOut,
                format!("{} of {n} replies after {deadline:?}", received),
            ));
        }
        while next < n && due(next) <= now {
            let t = input.tenants[next];
            let conn = &mut conns[conn_of(t)];
            conn.pending.extend_from_slice(&input.frames[next]);
            sent_at[next] = now;
            lateness_us.push((now - due(next)) as f64 / 1e3);
            queues
                .entry((t, input.streams[next]))
                .or_default()
                .push_back(next);
            next += 1;
        }
        for conn in &mut conns {
            conn.flush()?;
        }
        let timeout = if next < n {
            due(next).saturating_sub(start.elapsed().as_nanos() as u64)
        } else {
            10_000_000
        };
        if measure::poll_readable(&mut fds, timeout) == 0 {
            continue;
        }
        let arrived = start.elapsed().as_nanos() as u64;
        for (c, conn) in conns.iter_mut().enumerate() {
            if fds[c].revents == 0 {
                continue;
            }
            loop {
                let read = conn.reader.read_some(&mut conn.stream, |frame| {
                    let tenant = u16::from_be_bytes([frame[0], frame[1]]);
                    let stream = u32::from_be_bytes([frame[2], frame[3], frame[4], frame[5]]);
                    let Some(i) = queues
                        .get_mut(&(tenant, stream))
                        .and_then(VecDeque::pop_front)
                    else {
                        unmatched += 1;
                        return;
                    };
                    received += 1;
                    latencies_us.push((arrived - due(i)) as f64 / 1e3);
                    round_trips_us.push((arrived - sent_at[i]) as f64 / 1e3);
                    replies.extend_from_slice(&(frame.len() as u32).to_be_bytes());
                    replies.extend_from_slice(frame);
                    answered.push(i);
                });
                match read {
                    Ok(0) => {
                        return Err(std::io::Error::new(
                            ErrorKind::UnexpectedEof,
                            "reactor closed the connection",
                        ))
                    }
                    Ok(_) => {}
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) => return Err(e),
                }
            }
        }
    }
    let cpu_us = measure::process_cpu_us() - cpu0;

    let mut digests = Vec::new();
    for (c, conn) in conns.iter_mut().enumerate() {
        conn.stream.set_nonblocking(false)?;
        conn.stream.write_all(&input.digest[c])?;
        let count = (0..shape.tenants).filter(|&t| conn_of(t) == c).count();
        read_frames(&mut conn.stream, &mut conn.reader, count, &mut digests)?;
    }
    drop(conns);
    reactor.shutdown();
    Ok(ObserveSession {
        setup_s,
        cpu_us,
        latencies_us,
        round_trips_us,
        lateness_us,
        unmatched,
        registered,
        digests,
    })
}

/// Checks an open-loop session: one `Observed` per request, in
/// per-stream order, with `satisfied` as the declared range says.
fn check_observe_replies(
    input: &ObserveInput,
    replies: &[u8],
    answered: &[usize],
    unmatched: usize,
    out: &mut Outcome,
) {
    if unmatched > 0 {
        out.fail(format!(
            "{unmatched} replies matched no outstanding request"
        ));
    }
    let decoded = decode_replies(replies, out);
    if decoded.len() != input.shape.requests || answered.len() != decoded.len() {
        out.fail(format!(
            "{} replies for {} requests",
            decoded.len(),
            input.shape.requests
        ));
    }
    for (i, (tenant, stream, reply)) in answered.iter().zip(decoded) {
        if (tenant.0, stream) != (input.tenants[*i], input.streams[*i]) {
            out.fail(format!("request {i} answered on {tenant}/{stream}"));
        }
        match reply {
            Reply::Observed { satisfied } => {
                let want = in_range(input.values[*i]);
                if satisfied != want {
                    out.fail(format!(
                        "request {i}: satisfied {satisfied}, expected {want}"
                    ));
                }
            }
            other => {
                if matches!(other, Reply::Rejected { .. }) {
                    out.failed += 1;
                }
                out.fail(format!("request {i}: unexpected {other:?}"));
            }
        }
    }
}

fn observe_digest_expectation(input: &ObserveInput) -> BTreeMap<u16, (u64, u64, u64)> {
    let mut expected: BTreeMap<u16, (u64, u64, u64)> =
        (0..input.shape.tenants).map(|t| (t, (0, 0, 0))).collect();
    for (i, &t) in input.tenants.iter().enumerate() {
        let e = expected.get_mut(&t).expect("tenant in range");
        e.1 += 1;
        e.2 += u64::from(!in_range(input.values[i]));
    }
    expected
}

fn check_observe_session(
    input: &ObserveInput,
    session: &ObserveSession,
    replies: &[u8],
    answered: &[usize],
    out: &mut Outcome,
) {
    let all: Vec<u16> = (0..input.shape.tenants).collect();
    check_registered(&session.registered, &all, out);
    check_observe_replies(input, replies, answered, session.unmatched, out);
    check_digests(&session.digests, &observe_digest_expectation(input), out);
}

/// `serve_observe` end to end.
pub fn observe(seed: u64, budget: Duration, shape: &ObserveShape) -> Outcome {
    let input = ObserveInput::new(seed, shape);
    let mut out = Outcome::default();
    let registry = Registry::new();
    let mut setups = Vec::new();
    let mut latencies = Vec::new();
    let mut lateness = Vec::new();
    let (mut cpu_us, mut requests) = (0u64, 0u64);
    let (mut replies, mut answered) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while setups.is_empty() || started.elapsed() < budget {
        let n = shape.requests as u64;
        let session = match observe_session(&input, &registry, &mut replies, &mut answered) {
            Ok(s) => s,
            Err(e) => {
                out.attempted += n;
                out.failed += n;
                out.fail(format!("session aborted: {e}"));
                break;
            }
        };
        check_observe_session(&input, &session, &replies, &answered, &mut out);
        out.attempted += n;
        setups.push(session.setup_s);
        latencies.push(session.latencies_us);
        lateness.extend_from_slice(&session.lateness_us);
        cpu_us += session.cpu_us;
        requests += n;
    }
    if !lateness.is_empty() {
        let p99 = measure::quantile(&mut lateness, 0.99);
        out.note(format!(
            "{} sessions of {} requests at {:.0} requests/s offered; generator lateness p99 {p99:.1} us",
            setups.len(),
            shape.requests,
            1e9 / shape.interval.as_nanos() as f64
        ));
    }
    out.end_to_end(&mut setups, cpu_us as f64, requests, &mut latencies);
    out
}

// ---------------------------------------------------------------------
// Traced run: reactor telemetry over TCP, then an in-process replay of
// the same frames through each layer's public functions
// ---------------------------------------------------------------------

fn reactor_sweeps(registry: &Registry) -> (u64, u64) {
    registry
        .report()
        .histogram("serve.reactor.sweep")
        .map_or((0, 0), |h| (h.count, h.sum))
}

/// TCP sessions with a fresh registry each, so the reactor's own sweep
/// histogram belongs to one session.  Returns (requests, sweeps, sweep
/// ns, reactor-alive ns, mean TCP us per request).
fn tcp_reactor_figures(
    seed: u64,
    budget: Duration,
    observe_workload: bool,
    out: &mut Outcome,
) -> (u64, u64, u64, u64, f64) {
    let (mut requests, mut sweeps, mut sweep_ns, mut alive_ns) = (0u64, 0u64, 0u64, 0u64);
    let mut tcp_us = Vec::new();
    let started = Instant::now();
    let rounds_input = (!observe_workload).then(|| RoundsInput::new(seed, &RoundsShape::FULL));
    let observe_input = observe_workload.then(|| ObserveInput::new(seed, &ObserveShape::FULL));
    let (mut replies, mut answered) = (Vec::new(), Vec::new());
    while requests == 0 || started.elapsed() < budget {
        let registry = Registry::new();
        // The reactor lives from bind to shutdown, inside the session.
        let alive = Instant::now();
        let mut checks = Outcome::default();
        if let Some(input) = &rounds_input {
            let session = rounds_session(input, &registry, &mut replies);
            alive_ns += alive.elapsed().as_nanos() as u64;
            match session {
                Ok(s) => {
                    check_rounds_session(input, &s, &replies, &mut checks);
                    let n = input.requests();
                    requests += n;
                    checks.attempted += n;
                    tcp_us.push(s.wall_ns as f64 / 1e3 / n as f64);
                }
                Err(e) => checks.fail(format!("traced session aborted: {e}")),
            }
        }
        if let Some(input) = &observe_input {
            let session = observe_session(input, &registry, &mut replies, &mut answered);
            alive_ns += alive.elapsed().as_nanos() as u64;
            match session {
                Ok(mut s) => {
                    check_observe_session(input, &s, &replies, &answered, &mut checks);
                    let n = input.shape.requests as u64;
                    requests += n;
                    checks.attempted += n;
                    tcp_us.push(measure::median(&mut s.round_trips_us));
                }
                Err(e) => checks.fail(format!("traced session aborted: {e}")),
            }
        }
        let (count, sum) = reactor_sweeps(&registry);
        sweeps += count;
        sweep_ns += sum;
        let broken = !checks.errors.is_empty();
        out.absorb_checks(checks);
        if broken {
            break;
        }
    }
    let tcp = if tcp_us.is_empty() {
        0.0
    } else {
        measure::median(&mut tcp_us)
    };
    (requests, sweeps, sweep_ns, alive_ns, tcp)
}

/// Requests that arrive together, and the tenant to pump after them.
type Batch = (u16, Vec<Vec<u8>>);

/// The frames one replay pass pushes through the core: per batch, the
/// requests that arrive together and the tenant to pump after them.
fn replay_batches(seed: u64, observe_workload: bool) -> (Vec<Vec<u8>>, Vec<Batch>) {
    if observe_workload {
        let input = ObserveInput::new(seed, &ObserveShape::FULL);
        let batches = input
            .frames
            .iter()
            .zip(&input.tenants)
            .map(|(f, &t)| (t, vec![f[4..].to_vec()]))
            .collect();
        let mut register = Vec::new();
        for c in 0..2 {
            register.extend_from_slice(&input.register[c]);
        }
        (split_frames(&register), batches)
    } else {
        let input = RoundsInput::new(seed, &RoundsShape::FULL);
        let mut batches = Vec::new();
        for round in 1..=input.shape.rounds {
            for t in 0..input.shape.tenants {
                batches.push((t, split_frames(&input.batches[input.idx(round, t)])));
            }
        }
        (split_frames(&input.register), batches)
    }
}

fn split_frames(buf: &[u8]) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    let mut at = 0;
    while at + 4 <= buf.len() {
        let len = u32::from_be_bytes(buf[at..at + 4].try_into().expect("4 bytes")) as usize;
        frames.push(buf[at + 4..at + 4 + len].to_vec());
        at += 4 + len;
    }
    frames
}

/// What one in-process pass did.
#[derive(Default)]
struct Replay {
    requests: u64,
    /// Time in `enqueue` plus `pump`.
    ns: u64,
    /// Allocations in `enqueue` plus `pump`.
    allocs: u64,
    replies: u64,
    reply_bytes: u64,
}

/// One in-process pass: registration, then every batch enqueued and
/// its tenant pumped.  With a tracer, each call is a span; without,
/// the pass measures the whole in-process cost and its allocations.
fn replay_core(
    register: &[Vec<u8>],
    batches: &[Batch],
    mut tracer: Option<&mut Tracer>,
    next_id: &mut u64,
    out: &mut Outcome,
) -> Replay {
    let addr = ClientAddr(1);
    let mut core = ServerCore::new(ServeConfig::default(), &Registry::new());
    for frame in register {
        if !matches!(core.enqueue(addr, frame), Enqueued::Handled(_)) {
            out.fail("in-process registration was not handled".to_string());
        }
    }
    let mut totals = Replay::default();
    for (tenant, frames) in batches {
        let first_id = *next_id;
        let allocs0 = measure::thread_allocs();
        let t0 = Instant::now();
        for frame in frames {
            let id = *next_id;
            *next_id += 1;
            if let Some(tr) = tracer.as_deref_mut() {
                let span = tr.begin(id, "serve.proto.decode");
                let decoded = Frame::decode(frame);
                tr.end(span, 1);
                if decoded.is_err() {
                    out.fail("replayed request did not decode".to_string());
                }
                let span = tr.begin(id, "serve.core.enqueue");
                let queued = core.enqueue(addr, frame);
                tr.end(span, 1);
                if !matches!(queued, Enqueued::Queued(_)) {
                    out.fail(format!("replayed request not queued: {queued:?}"));
                }
            } else if !matches!(core.enqueue(addr, frame), Enqueued::Queued(_)) {
                out.fail("replayed request not queued".to_string());
            }
        }
        let replies = if let Some(tr) = tracer.as_deref_mut() {
            let span = tr.begin(first_id, "serve.core.pump");
            let replies = core.pump(TenantId(*tenant));
            tr.end(span, frames.len() as u64);
            replies
        } else {
            core.pump(TenantId(*tenant))
        };
        totals.ns += t0.elapsed().as_nanos() as u64;
        totals.allocs += measure::thread_allocs() - allocs0;
        totals.requests += frames.len() as u64;
        totals.replies += replies.len() as u64;
        totals.reply_bytes += replies.iter().map(|(_, b)| b.len() as u64).sum::<u64>();
        if let Some(tr) = tracer.as_deref_mut() {
            for (_, bytes) in &replies {
                let Ok(frame) = Frame::decode(bytes) else {
                    out.fail("in-process reply did not decode".to_string());
                    continue;
                };
                let span = tr.begin(first_id, "serve.proto.encode");
                let encoded = frame.encode();
                tr.end(span, 1);
                if &encoded != bytes {
                    out.fail("reply re-encoding differs from the core's bytes".to_string());
                }
            }
        }
    }
    totals
}

/// Tenant, voting and alpha-count kernels on the `serve_rounds` inputs.
fn trace_tenant_kernels(seed: u64, tracer: &mut Tracer, out: &mut Outcome) {
    let input = RoundsInput::new(seed, &RoundsShape::FULL);
    let shape = &input.shape;
    let s_n = shape.streams as usize;
    let registry = Registry::new();
    let mut id = 1u64 << 40;
    for t in 0..shape.tenants {
        let quotas = TenantQuotas {
            expected_clients: shape.streams,
            ballot_min: BALLOT_MIN,
            ballot_max: BALLOT_MAX,
            ..TenantQuotas::default()
        };
        let mut tenant = Tenant::new(TenantId(t), quotas, registry.scoped(format!("bench.{t}")));
        for round in 1..=shape.rounds {
            let base = input.idx(round, t) * s_n;
            let mut results = Vec::new();
            for c in 0..s_n {
                id += 1;
                let span = tracer.begin(id, "serve.tenant.observe");
                let satisfied = tenant.observe(c as u32, "ballot", input.observes[base + c]);
                tracer.end(span, 1);
                if satisfied != in_range(input.observes[base + c]) {
                    out.fail(format!(
                        "Tenant::observe disagrees at {t}/{c} round {round}"
                    ));
                }
                let ballot = input.ballots[base + c].clone();
                let span = tracer.begin(id, "serve.tenant.ballot");
                results.extend(tenant.ballot(c as u32, round, ballot));
                tracer.end(span, 1);
            }
            let want = &input.votes[input.idx(round, t)];
            match results.as_slice() {
                [r] if r.value == want.value && r.dtof == want.dtof => {}
                other => out.fail(format!("Tenant::ballot round {round} gave {other:?}")),
            }
        }
    }
    // vote_of_n and AlphaCount::record on the same rounds, timed in
    // batches (each call is a few ns to a few hundred ns).
    let rounds: Vec<&[String]> = input.ballots.chunks(s_n).collect();
    let span = tracer.begin(0, "voting.vote_of_n");
    let mut majorities = 0usize;
    for ballots in &rounds {
        majorities += usize::from(std::hint::black_box(vote_of_n(ballots, s_n)).dtof(s_n) > 0);
    }
    tracer.end(span, rounds.len() as u64);
    let with_majority = input.votes.iter().filter(|v| v.dtof > 0).count();
    if majorities != with_majority {
        out.fail(format!(
            "vote_of_n found {majorities} rounds with dtof > 0, expected {with_majority}"
        ));
    }
    let judgments: Vec<Judgment> = rounds
        .iter()
        .zip(&input.votes)
        .flat_map(|(ballots, vote)| {
            ballots.iter().map(move |b| {
                if vote.value.as_deref().is_some_and(|v| v != b) {
                    Judgment::Erroneous
                } else {
                    Judgment::Correct
                }
            })
        })
        .collect();
    let mut counters: Vec<AlphaCount> = (0..s_n).map(|_| AlphaCount::with_threshold(3.0)).collect();
    let span = tracer.begin(0, "alphacount.record");
    for (i, j) in judgments.iter().enumerate() {
        std::hint::black_box(counters[i % s_n].record(*j));
    }
    tracer.end(span, judgments.len() as u64);
}

/// The serving half of the traced run.
pub fn trace(
    seed: u64,
    budget: Duration,
    observe_workload: bool,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let (requests, sweeps, sweep_ns, alive_ns, tcp_us) =
        tcp_reactor_figures(seed, budget / 2, observe_workload, out);

    let (register, batches) = replay_batches(seed, observe_workload);
    let mut id = 0u64;
    let started = Instant::now();
    let mut plain = Replay::default();
    while plain.requests == 0 || started.elapsed() < budget / 4 {
        let pass = replay_core(&register, &batches, None, &mut id, out);
        plain.requests += pass.requests;
        plain.ns += pass.ns;
        plain.allocs += pass.allocs;
        plain.replies += pass.replies;
        plain.reply_bytes += pass.reply_bytes;
        let traced = replay_core(&register, &batches, Some(&mut *tracer), &mut id, out);
        out.attempted += traced.requests;
    }
    trace_tenant_kernels(seed, tracer, out);

    let inproc_ns = plain.ns as f64 / plain.requests as f64;
    let decode = tracer.ns_per_unit("serve.proto.decode");
    let enqueue = tracer.ns_per_unit("serve.core.enqueue");
    let pump = tracer.ns_per_unit("serve.core.pump");
    let residual_us = tcp_us - inproc_ns / 1e3;
    out.metric(
        "serve.proto.decode_ns",
        decode,
        "ns",
        tracer.units("serve.proto.decode") as usize,
    );
    out.metric(
        "serve.proto.encode_ns",
        tracer.ns_per_unit("serve.proto.encode"),
        "ns",
        tracer.units("serve.proto.encode") as usize,
    );
    out.metric(
        "serve.proto.reply_bytes",
        plain.reply_bytes as f64 / plain.replies as f64,
        "bytes",
        plain.replies as usize,
    );
    out.metric(
        "serve.core.enqueue_ns",
        enqueue,
        "ns",
        tracer.units("serve.core.enqueue") as usize,
    );
    out.metric(
        "serve.core.pump_ns",
        pump,
        "ns",
        tracer.units("serve.core.pump") as usize,
    );
    out.metric(
        "serve.core.allocs_per_req",
        plain.allocs as f64 / plain.requests as f64,
        "count",
        plain.requests as usize,
    );
    for (metric, span) in [
        ("serve.tenant.observe_ns", "serve.tenant.observe"),
        ("serve.tenant.ballot_ns", "serve.tenant.ballot"),
        ("voting.vote_of_n_ns", "voting.vote_of_n"),
        ("alphacount.record_ns", "alphacount.record"),
    ] {
        out.metric(
            metric,
            tracer.ns_per_unit(span),
            "ns",
            tracer.units(span) as usize,
        );
    }
    out.metric(
        "serve.reactor.sweeps_per_req",
        sweeps as f64 / requests.max(1) as f64,
        "count",
        sweeps as usize,
    );
    out.metric(
        "serve.reactor.busy_share",
        sweep_ns as f64 / alive_ns.max(1) as f64,
        "ratio",
        sweeps as usize,
    );
    out.metric(
        "serve.reactor.residual_us",
        residual_us,
        "us",
        requests as usize,
    );
    out.note(format!(
        "serving layers: decode {decode:.0} ns within enqueue {enqueue:.0} ns; enqueue + pump = {:.0} ns \
         vs whole in-process {inproc_ns:.0} ns per request (ratio {:.3}, band 0.80-1.25)",
        enqueue + pump,
        (enqueue + pump) / inproc_ns
    ));
    out.note(format!(
        "TCP {} {tcp_us:.2} us per request = in-process {:.2} us + residual {residual_us:.2} us \
         (sockets, worker hand-off, idle sleep)",
        if observe_workload {
            "round trip"
        } else {
            "closed-loop wall"
        },
        inproc_ns / 1e3
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY_ROUNDS: RoundsShape = RoundsShape {
        tenants: 2,
        streams: 3,
        rounds: 4,
    };
    const TINY_OBSERVE: ObserveShape = ObserveShape {
        tenants: 4,
        streams: 2,
        requests: 40,
        interval: Duration::from_micros(200),
    };

    #[test]
    fn expected_vote_follows_the_dtof_law() {
        let b = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let v = expected_vote(&b(&["a", "a", "b", "a"]), 4);
        assert_eq!(
            (v.value.as_deref(), v.dissent, v.dtof),
            (Some("a"), Some(1), 1)
        );
        let v = expected_vote(&b(&["a", "a", "b", "b"]), 4);
        assert_eq!((v.value, v.dissent, v.dtof), (None, None, 0));
        // Missing ballots count against the majority of n.
        let v = expected_vote(&b(&["a", "a"]), 5);
        assert_eq!(v.value, None);
    }

    #[test]
    fn rounds_workload_runs_and_checks_at_a_tiny_size() {
        let out = rounds(7, Duration::from_millis(1), &TINY_ROUNDS);
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert_eq!(out.attempted, 2 * 3 * 4 * 2);
        assert_eq!(out.failed, 0);
        assert_eq!(out.metrics.len(), 4);
    }

    #[test]
    fn observe_workload_runs_and_checks_at_a_tiny_size() {
        let out = observe(7, Duration::from_millis(1), &TINY_OBSERVE);
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert_eq!(out.attempted, 40);
        assert_eq!(out.metrics.len(), 4);
    }

    #[test]
    fn rounds_checker_rejects_a_tampered_dtof_and_a_missing_reply() {
        let input = RoundsInput::new(3, &TINY_ROUNDS);
        let mut replies = Vec::new();
        let session = rounds_session(&input, &Registry::new(), &mut replies).expect("session runs");
        let mut clean = Outcome::default();
        check_rounds_session(&input, &session, &replies, &mut clean);
        assert!(clean.errors.is_empty(), "{:?}", clean.errors);

        // Round 1 re-encoded with one RoundResult's dtof bumped.
        let first = &replies[..session.round_ends[0]];
        let mut scratch = Outcome::default();
        let mut tampered = Vec::new();
        let mut bumped = false;
        for (tenant, stream, reply) in decode_replies(first, &mut scratch) {
            let reply = match reply {
                Reply::RoundResult(mut r) if !bumped => {
                    bumped = true;
                    r.dtof += 1;
                    Reply::RoundResult(r)
                }
                other => other,
            };
            push_frame(&mut tampered, &Frame::reply(tenant, stream, reply));
        }
        let mut out = Outcome::default();
        check_round(&input, 1, &tampered, &mut out);
        assert!(out
            .errors
            .iter()
            .any(|e| e.contains("expected ExpectedVote")));

        // Round 1 with its last reply missing.
        let frames = split_frames(first);
        let mut short = Vec::new();
        for f in &frames[..frames.len() - 1] {
            short.extend_from_slice(&(f.len() as u32).to_be_bytes());
            short.extend_from_slice(f);
        }
        let mut out = Outcome::default();
        check_round(&input, 1, &short, &mut out);
        assert!(out.errors.iter().any(|e| e.contains("expected one each")));
    }

    #[test]
    fn observe_checker_rejects_a_missing_reply() {
        let input = ObserveInput::new(5, &TINY_OBSERVE);
        let (mut replies, mut answered) = (Vec::new(), Vec::new());
        let session = observe_session(&input, &Registry::new(), &mut replies, &mut answered)
            .expect("session runs");
        let mut clean = Outcome::default();
        check_observe_session(&input, &session, &replies, &answered, &mut clean);
        assert!(clean.errors.is_empty(), "{:?}", clean.errors);
        let frames = split_frames(&replies);
        let mut short = Vec::new();
        for f in &frames[1..] {
            short.extend_from_slice(&(f.len() as u32).to_be_bytes());
            short.extend_from_slice(f);
        }
        let mut out = Outcome::default();
        check_observe_session(&input, &session, &short, &answered[1..], &mut out);
        assert!(out.errors.iter().any(|e| e.contains("replies for")));
    }
}
