//! The deterministic operation generator: workload definitions, the
//! seeded key pickers, and the self-describing value encoding.
//!
//! Everything a run sends is a pure function of `(workload, seed,
//! connection)`, so two runs with the same seed put byte-identical
//! request streams on the wire.

use std::collections::VecDeque;

use mnemosyne_svc::Request;

/// Keys preloaded before every run (`user%012d`).
pub const KEYS: u64 = 20_000;
/// Value size in bytes.
pub const VALUE_LEN: usize = 64;
/// Closed-loop connections (one thread each); also the number of writer
/// partitions: connection `c` is the only writer of keys with
/// `key_id % CONNS == c`, so "the last acked version" of a key is known
/// to exactly one thread without any cross-thread bookkeeping.
pub const CONNS: usize = 2;
/// Skew of the zipfian workloads (the YCSB default).
pub const ZIPF_THETA: f64 = 0.99;

/// How a workload picks keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dist {
    /// Every key equally likely.
    Uniform,
    /// YCSB zipfian, θ = [`ZIPF_THETA`]; rank 0 is key 0.
    Zipfian,
}

/// One named traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Share of GETs in percent; the rest are PUTs.
    pub get_pct: u64,
    pub dist: Dist,
    /// Requests kept in flight per connection.
    pub window: usize,
}

/// The benchmark's workloads; `BENCHMARK.json` and `README.md` record
/// why each one exists.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "stm_update",
        get_pct: 0,
        dist: Dist::Uniform,
        window: 32,
    },
    Workload {
        name: "stm_read_zipf",
        get_pct: 95,
        dist: Dist::Zipfian,
        window: 32,
    },
    Workload {
        name: "stm_sync",
        get_pct: 50,
        dist: Dist::Uniform,
        window: 1,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// SplitMix64: tiny, seedable, and good enough to drive a key picker.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; the modulo bias is below 2^-49 for the `n`
    /// used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The YCSB zipfian generator (Gray et al., "Quickly generating
/// billion-record synthetic databases") over ranks `0..n`.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        let zeta = |n: u64| (1..=n).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    /// Probability of rank 0: `1 / ζ(n, θ)`.
    #[cfg(test)]
    pub fn rank0_mass(&self) -> f64 {
        1.0 / self.zetan
    }

    pub fn rank(&self, rng: &mut Rng) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// Picks a rank in `0..n` under a [`Dist`].
#[derive(Debug, Clone)]
enum Picker {
    Uniform(u64),
    Zipfian(Zipf),
}

impl Picker {
    fn new(dist: Dist, n: u64) -> Picker {
        match dist {
            Dist::Uniform => Picker::Uniform(n),
            Dist::Zipfian => Picker::Zipfian(Zipf::new(n, ZIPF_THETA)),
        }
    }

    fn pick(&self, rng: &mut Rng) -> u64 {
        match self {
            Picker::Uniform(n) => rng.below(*n),
            Picker::Zipfian(z) => z.rank(rng),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Get,
    Put,
}

impl OpKind {
    pub fn as_str(self) -> &'static str {
        match self {
            OpKind::Get => "GET",
            OpKind::Put => "PUT",
        }
    }
}

/// One generated operation; a PUT's version is assigned by the sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub key_id: u64,
}

/// The operation stream of one connection.
///
/// A PUT never targets a key that one of the previous `window - 1`
/// operations also PUT. The driver keeps at most `window` requests in
/// flight and replies come back in request order, so this is exactly "no
/// two PUTs of one key in flight at once": the daemon may execute
/// pipelined requests of one connection in different batches, in either
/// order, and only then is "the last acknowledged version" the value the
/// key must hold.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: Rng,
    conn: u64,
    get_pct: u64,
    /// GETs read any key.
    all: Picker,
    /// PUTs write only this connection's partition.
    own: Picker,
    /// What each of the last `window - 1` operations PUT (`None`: a GET).
    recent_puts: VecDeque<Option<u64>>,
}

impl OpStream {
    pub fn new(w: &Workload, seed: u64, conn: usize) -> OpStream {
        OpStream {
            // Distinct, seed-derived streams per connection.
            rng: Rng::new(mix(seed ^ mix(conn as u64 + 1))),
            conn: conn as u64,
            get_pct: w.get_pct,
            all: Picker::new(w.dist, KEYS),
            own: Picker::new(w.dist, KEYS / CONNS as u64),
            recent_puts: std::iter::repeat_n(None, w.window - 1).collect(),
        }
    }

    pub fn next_op(&mut self) -> Op {
        let op = if self.rng.below(100) < self.get_pct {
            Op {
                kind: OpKind::Get,
                key_id: self.all.pick(&mut self.rng),
            }
        } else {
            let key_id = loop {
                let k = self.own.pick(&mut self.rng) * CONNS as u64 + self.conn;
                if !self.recent_puts.contains(&Some(k)) {
                    break k;
                }
            };
            Op {
                kind: OpKind::Put,
                key_id,
            }
        };
        self.recent_puts
            .push_back((op.kind == OpKind::Put).then_some(op.key_id));
        self.recent_puts.pop_front();
        op
    }
}

pub fn key_bytes(key_id: u64) -> Vec<u8> {
    format!("user{key_id:012}").into_bytes()
}

/// The connection that writes `key_id`.
pub fn writer_of(key_id: u64) -> u64 {
    key_id % CONNS as u64
}

/// A value that says whose it is: `[key_id, writer, version]` followed by
/// five filler words derived from those three, so a reply can be checked
/// byte for byte without remembering what was sent.
pub fn encode_value(key_id: u64, version: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(VALUE_LEN);
    for w in [key_id, writer_of(key_id), version] {
        v.extend_from_slice(&w.to_le_bytes());
    }
    let mut filler = Rng::new(mix(key_id) ^ version);
    while v.len() < VALUE_LEN {
        v.extend_from_slice(&filler.next_u64().to_le_bytes());
    }
    v
}

/// `(key_id, version)` of a well-formed value; `None` when the bytes are
/// not something [`encode_value`] produces.
pub fn decode_value(value: &[u8]) -> Option<(u64, u64)> {
    if value.len() != VALUE_LEN {
        return None;
    }
    let word = |i: usize| u64::from_le_bytes(value[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
    let (key_id, version) = (word(0), word(2));
    (value == encode_value(key_id, version)).then_some((key_id, version))
}

pub fn put_request(key_id: u64, version: u64) -> Request {
    Request::Put(key_bytes(key_id), encode_value(key_id, version))
}

pub fn get_request(key_id: u64) -> Request {
    Request::Get(key_bytes(key_id))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first `n` requests of one connection, as the bytes that would
    /// go on the wire (versions count up per key from the preload's 0).
    fn wire_bytes(w: &Workload, seed: u64, conn: usize, n: usize) -> Vec<u8> {
        let mut stream = OpStream::new(w, seed, conn);
        let mut versions = vec![0u64; KEYS as usize];
        let mut out = Vec::new();
        for _ in 0..n {
            let op = stream.next_op();
            let req = match op.kind {
                OpKind::Get => get_request(op.key_id),
                OpKind::Put => {
                    versions[op.key_id as usize] += 1;
                    put_request(op.key_id, versions[op.key_id as usize])
                }
            };
            out.extend_from_slice(&req.encode());
        }
        out
    }

    #[test]
    fn same_seed_gives_identical_bytes_and_other_seed_differs() {
        for w in &WORKLOADS {
            for conn in 0..CONNS {
                let a = wire_bytes(w, 7, conn, 5_000);
                assert_eq!(a, wire_bytes(w, 7, conn, 5_000), "{}", w.name);
                assert_ne!(a, wire_bytes(w, 8, conn, 5_000), "{}", w.name);
            }
            assert_ne!(wire_bytes(w, 7, 0, 5_000), wire_bytes(w, 7, 1, 5_000));
        }
    }

    #[test]
    fn puts_stay_in_the_connections_partition() {
        for w in &WORKLOADS {
            for conn in 0..CONNS {
                let mut s = OpStream::new(w, 3, conn);
                for _ in 0..20_000 {
                    let op = s.next_op();
                    assert!(op.key_id < KEYS);
                    if op.kind == OpKind::Put {
                        assert_eq!(writer_of(op.key_id), conn as u64);
                    }
                }
            }
        }
    }

    #[test]
    fn no_key_is_put_twice_within_a_window() {
        for w in &WORKLOADS {
            let mut s = OpStream::new(w, 9, 1);
            let ops: Vec<Op> = (0..50_000).map(|_| s.next_op()).collect();
            for (i, op) in ops.iter().enumerate() {
                let in_flight = &ops[i.saturating_sub(w.window - 1)..i];
                assert!(
                    op.kind == OpKind::Get || !in_flight.contains(op),
                    "{}: op {i} repeats a PUT still in flight",
                    w.name
                );
            }
        }
    }

    #[test]
    fn get_share_matches_the_mix() {
        let w = workload("stm_read_zipf").unwrap();
        let mut s = OpStream::new(&w, 11, 0);
        let gets = (0..200_000)
            .filter(|_| s.next_op().kind == OpKind::Get)
            .count();
        assert!((gets as f64 / 200_000.0 - 0.95).abs() < 0.005, "{gets}");
    }

    #[test]
    fn zipfian_rank0_mass_is_within_one_percent_of_theory() {
        let z = Zipf::new(KEYS, ZIPF_THETA);
        let theory = z.rank0_mass();
        // 1/ζ(20000, 0.99) — about a tenth of all draws.
        assert!((0.09..0.11).contains(&theory), "{theory}");
        let mut rng = Rng::new(42);
        let draws = 2_000_000;
        let mut hits = 0u64;
        for _ in 0..draws {
            let r = z.rank(&mut rng);
            assert!(r < KEYS);
            hits += u64::from(r == 0);
        }
        let measured = hits as f64 / draws as f64;
        assert!(
            (measured / theory - 1.0).abs() < 0.01,
            "measured {measured}, theory {theory}"
        );
    }

    #[test]
    fn uniform_picker_covers_the_key_space_evenly() {
        let mut rng = Rng::new(5);
        let p = Picker::new(Dist::Uniform, 10);
        let mut counts = [0u64; 10];
        for _ in 0..100_000 {
            counts[p.pick(&mut rng) as usize] += 1;
        }
        assert!(
            counts.iter().all(|&c| (9_000..11_000).contains(&c)),
            "{counts:?}"
        );
    }

    #[test]
    fn values_round_trip_and_reject_damage() {
        let v = encode_value(1234, 56);
        assert_eq!(v.len(), VALUE_LEN);
        assert_eq!(decode_value(&v), Some((1234, 56)));
        let mut bad = v.clone();
        bad[40] ^= 1;
        assert_eq!(decode_value(&bad), None);
        assert_eq!(decode_value(&v[..63]), None);
        assert_eq!(key_bytes(7), b"user000000000007");
    }
}
