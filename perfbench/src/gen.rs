//! Seeded inputs: the account population and each connection's request
//! stream.  Everything the server receives is generated here from the
//! run's seed, so the same seed replays the same click sequences, jitter
//! and operation order.

use gp_geometry::Point;
use gp_netauth::ClientMessage;
use std::sync::Arc;

/// Enrolled accounts that receive correct logins.
pub const POPULATION: usize = 4096;
/// Reserved accounts that only ever receive logins outside the tolerance
/// (they lock after three failures, so they never share a lockout entry
/// with the accounts whose logins must be accepted).
pub const DECOYS: usize = 64;
/// One login in this many targets a decoy with a click outside `r`.
pub const DECOY_EVERY: u64 = 64;
/// The study deployment's whole-pixel tolerance (`centered(9)`: r = 9.5).
/// Jitter up to this many pixels per axis must be accepted.
const TOLERANCE_PX: i64 = 9;
/// A wrong click sits this far (pixels, on one axis) from its original:
/// strictly outside the centered square `[x − 9.5, x + 9.5)`.
const WRONG_OFFSET: (i64, i64) = (12, 25);
/// Originals stay this far inside the 451×331 study image, so jittered and
/// wrong clicks never leave it.
const MARGIN: i64 = 30;
const IMAGE: (i64, i64) = (451, 331);
const CLICKS: usize = 5;

/// SplitMix64: tiny, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of a run's seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is far below 2^-40).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform integer in `lo..=hi`.
    pub fn between(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One account: its name and original click-points.
#[derive(Debug, Clone)]
pub struct Account {
    /// Account name.
    pub name: String,
    /// Original click-points, on whole pixels.
    pub clicks: Vec<Point>,
}

/// The fixed-size account population of a run.
#[derive(Debug)]
pub struct Population {
    /// Accounts that receive correct logins.
    pub users: Vec<Account>,
    /// Reserved accounts that receive only wrong logins.
    pub decoys: Vec<Account>,
}

fn original_clicks(rng: &mut Rng) -> Vec<Point> {
    (0..CLICKS)
        .map(|_| {
            let x = rng.between(MARGIN, IMAGE.0 - MARGIN);
            let y = rng.between(MARGIN, IMAGE.1 - MARGIN);
            Point::new(x as f64, y as f64)
        })
        .collect()
}

impl Population {
    /// The population for `seed`: fixed names and sizes, seeded clicks.
    pub fn generate(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 0);
        let mut account = |name: String| Account {
            name,
            clicks: original_clicks(&mut rng),
        };
        let users = (0..POPULATION)
            .map(|i| account(format!("user-{i:05}")))
            .collect();
        let decoys = (0..DECOYS)
            .map(|i| account(format!("decoy-{i:03}")))
            .collect();
        Self { users, decoys }
    }

    /// Every account, users first.
    pub fn all(&self) -> impl Iterator<Item = &Account> {
        self.users.iter().chain(&self.decoys)
    }
}

/// The response an operation must get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A login inside the tolerance: `Accepted`.
    Accept,
    /// A login outside the tolerance: anything but `Accepted`.
    Refuse,
    /// A fresh enrollment: `EnrollOk`.
    EnrollOk,
}

/// One request and the response it must get.
#[derive(Debug, Clone)]
pub struct Op {
    /// The request.
    pub message: ClientMessage,
    /// What a correct server answers.
    pub expect: Expect,
}

impl Op {
    /// Whether this is an enrollment (latency is reported per kind).
    pub fn is_enroll(&self) -> bool {
        self.expect == Expect::EnrollOk
    }
}

/// Which account names a connection may address.
pub type Owns = Box<dyn Fn(&str) -> bool + Send>;

/// The request stream of one client connection.
pub struct OpStream {
    rng: Rng,
    population: Arc<Population>,
    /// Indices into `population.users` / `population.decoys` this
    /// connection may address (all of them, or one cluster node's share).
    users: Vec<usize>,
    decoys: Vec<usize>,
    fresh_prefix: String,
    fresh_next: u64,
    owns: Owns,
    /// Self-test hook: the first correct login is expected to be refused,
    /// which a correct server must contradict.
    sabotage: bool,
}

impl OpStream {
    /// Connection `conn`'s stream for `seed`.  `owns` restricts the
    /// accounts (and fresh enrollment names) to those it accepts.
    pub fn new(
        seed: u64,
        conn: usize,
        population: Arc<Population>,
        owns: Owns,
        sabotage: bool,
    ) -> Self {
        let users: Vec<usize> = (0..population.users.len())
            .filter(|&i| owns(&population.users[i].name))
            .collect();
        let decoys: Vec<usize> = (0..population.decoys.len())
            .filter(|&i| owns(&population.decoys[i].name))
            .collect();
        assert!(
            !users.is_empty() && !decoys.is_empty(),
            "connection {conn} owns no accounts"
        );
        Self {
            rng: Rng::new(seed, 1 + conn as u64),
            population,
            users,
            decoys,
            fresh_prefix: format!("fresh-{seed}-{conn}-"),
            fresh_next: 0,
            owns,
            sabotage,
        }
    }

    /// Uniform in `[0, 1)` from this stream (arrival times, mix choices).
    pub fn unit(&mut self) -> f64 {
        self.rng.unit()
    }

    fn jittered(&mut self, clicks: &[Point]) -> Vec<Point> {
        clicks
            .iter()
            .map(|p| {
                let dx = self.rng.between(-TOLERANCE_PX, TOLERANCE_PX);
                let dy = self.rng.between(-TOLERANCE_PX, TOLERANCE_PX);
                p.offset(dx as f64, dy as f64)
            })
            .collect()
    }

    /// A login: usually a correct re-entry with per-click jitter inside
    /// `r`, one in [`DECOY_EVERY`] a decoy login with one click outside it.
    pub fn login(&mut self) -> Op {
        let population = Arc::clone(&self.population);
        if self.rng.below(DECOY_EVERY) == 0 {
            let decoy =
                &population.decoys[self.decoys[self.rng.below(self.decoys.len() as u64) as usize]];
            let mut clicks = self.jittered(&decoy.clicks);
            let wrong = self.rng.below(CLICKS as u64) as usize;
            let off = self.rng.between(WRONG_OFFSET.0, WRONG_OFFSET.1);
            let sign = if self.rng.below(2) == 0 { -1.0 } else { 1.0 };
            let original = decoy.clicks[wrong];
            clicks[wrong] = Point::new(original.x + sign * off as f64, clicks[wrong].y);
            return Op {
                message: ClientMessage::Login {
                    username: decoy.name.clone(),
                    clicks,
                },
                expect: Expect::Refuse,
            };
        }
        let user = &population.users[self.users[self.rng.below(self.users.len() as u64) as usize]];
        let clicks = self.jittered(&user.clicks);
        let expect = if std::mem::take(&mut self.sabotage) {
            Expect::Refuse
        } else {
            Expect::Accept
        };
        Op {
            message: ClientMessage::Login {
                username: user.name.clone(),
                clicks,
            },
            expect,
        }
    }

    /// An enrollment of a fresh account this connection owns.
    pub fn enroll(&mut self) -> Op {
        let username = loop {
            let name = format!("{}{}", self.fresh_prefix, self.fresh_next);
            self.fresh_next += 1;
            if (self.owns)(&name) {
                break name;
            }
        };
        Op {
            message: ClientMessage::Enroll {
                username,
                clicks: original_clicks(&mut self.rng),
            },
            expect: Expect::EnrollOk,
        }
    }

    /// A pipelined burst of `len` operations, `enrolls` of them fresh
    /// enrollments at seeded positions.
    pub fn burst(&mut self, len: usize, enrolls: usize) -> Vec<Op> {
        let mut enroll_at = vec![false; len];
        let mut placed = 0;
        while placed < enrolls.min(len) {
            let slot = self.rng.below(len as u64) as usize;
            if !std::mem::replace(&mut enroll_at[slot], true) {
                placed += 1;
            }
        }
        enroll_at
            .into_iter()
            .map(|enroll| if enroll { self.enroll() } else { self.login() })
            .collect()
    }
}
