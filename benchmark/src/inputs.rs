//! Seeded workload inputs: a pool of session scripts per workload.
//!
//! A script is one user's conversation with the daemon: a base
//! configuration to open, then three insertion rounds, each an English
//! intent (rendered by the LLM crate's own `render_prompt`) plus the slot
//! the simulated user wants the new rule at. Everything here is a pure
//! function of the seed, so the same seed replays the same load.

use std::net::Ipv4Addr;

use clarify_llm::{AclIntent, AddrIntent, PrefixConstraint, RouteMapIntent, SetIntent};
use clarify_netconfig::{fnv1a64, Config};
use clarify_nettypes::{Community, PortRange, Prefix, Protocol};
use clarify_rng::{Rng, StdRng};
use clarify_testkit::edits::apply_random_edit;
use clarify_testkit::Source;

/// Every workload, in the order the all-workloads mode runs them.
pub const WORKLOADS: [&str; 4] = ["e1_storm", "wide_policy", "acl_policy", "lint_edits"];

/// FNV-1a digests of the seed-42 inputs. A change to `clarify-workload`,
/// `testkit::edits` or either `render_prompt` that alters a workload shows
/// up here, and the benchmark refuses to report until the pin is updated
/// (which re-baselines the benchmark on purpose).
const PINNED_SEED42: [(&str, u64); 4] = [
    ("e1_storm", 0x43a3c3c0d5f081b3),
    ("wide_policy", 0x18846de7ab0f982d),
    ("acl_policy", 0xff3541d268aa32ae),
    ("lint_edits", 0xc9ae5c3b90d63992),
];

/// The §2 running example (the E1 worked example's base configuration).
const ISP_OUT: &str = "\
ip as-path access-list D0 permit _32$
ip prefix-list D1 seq 10 permit 10.0.0.0/8 le 24
ip prefix-list D1 seq 20 permit 20.0.0.0/16 le 32
ip prefix-list D1 seq 30 permit 1.0.0.0/20 ge 24
route-map ISP_OUT deny 10
 match as-path D0
route-map ISP_OUT deny 20
 match ip address prefix-list D1
route-map ISP_OUT permit 30
 match local-preference 300
";

/// Which disambiguator a round exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A route-map stanza insertion.
    RouteMap,
    /// An ACL entry insertion.
    Acl,
}

/// One insertion round of a script.
#[derive(Clone, Debug)]
pub struct Round {
    /// The route-map or ACL the rule goes into.
    pub target: String,
    /// Which kind of object `target` is.
    pub kind: Kind,
    /// The English intent sent in the `ask` frame.
    pub prompt: String,
    /// Zero-based position the user wants the new rule at, in the target
    /// as it stands when the round starts.
    pub slot: usize,
}

/// One session script.
#[derive(Clone, Debug)]
pub struct Script {
    /// Configuration text sent in the `open` frame.
    pub base: String,
    /// `base`, parsed: the client's starting copy of the configuration.
    pub parsed: Config,
    /// The insertion rounds, in order.
    pub rounds: Vec<Round>,
}

/// A workload: its script pool, which the closed-loop client runs in
/// order, cycling.
pub struct Workload {
    /// Workload name (one of [`WORKLOADS`]).
    pub name: &'static str,
    /// The script pool.
    pub scripts: Vec<Script>,
    /// Sessions per requested second the traced run replays; sized so a
    /// traced run's five passes take about `--seconds` on a 2-core host.
    pub traced_sessions_per_s: f64,
}

impl Workload {
    /// The `i`-th script of the cyclic pool.
    pub fn script(&self, i: usize) -> &Script {
        &self.scripts[i % self.scripts.len()]
    }
}

/// Generates workload `name` from `seed`; `None` for an unknown name.
pub fn generate(name: &str, seed: u64) -> Option<Workload> {
    let mut rng = StdRng::seed_from_u64(seed ^ fnv1a64(name.as_bytes()));
    let (name, scripts, traced_sessions_per_s) = match name {
        "e1_storm" => ("e1_storm", e1_storm(&mut rng), 10.0),
        "wide_policy" => ("wide_policy", wide_policy(&mut rng), 0.3),
        "acl_policy" => ("acl_policy", acl_policy(&mut rng), 0.65),
        "lint_edits" => ("lint_edits", lint_edits(&mut rng), 0.9),
        _ => return None,
    };
    Some(Workload {
        name,
        scripts,
        traced_sessions_per_s,
    })
}

/// FNV-1a over every generated input: configurations, targets, prompts
/// and intended slots, in pool order.
pub fn digest(w: &Workload) -> u64 {
    let mut text = String::new();
    for s in &w.scripts {
        text.push_str(&s.base);
        text.push('\0');
        for r in &s.rounds {
            let kind = match r.kind {
                Kind::RouteMap => "route-map",
                Kind::Acl => "acl",
            };
            text.push_str(&format!("{}\0{kind}\0{}\0{}\0", r.target, r.prompt, r.slot));
        }
    }
    fnv1a64(text.as_bytes())
}

/// The pinned seed-42 digest of `name`.
pub fn pinned_digest(name: &str) -> Option<u64> {
    PINNED_SEED42
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, d)| d)
}

fn script(base: String, rounds: Vec<Round>) -> Script {
    let parsed = Config::parse(&base).expect("generated configurations parse");
    Script {
        base,
        parsed,
        rounds,
    }
}

fn prefix(a: u8, b: u8, c: u8, len: u8) -> Prefix {
    Prefix::new(Ipv4Addr::new(a, b, c, 0), len)
}

/// Insertion rounds per script.
const ROUNDS: usize = 3;

/// Seeded low-discrepancy draws: the `j`-th term of a Weyl sequence with
/// a seeded start. Any run of consecutive terms covers `[0, 1)` evenly,
/// so every stretch of a pool gets the same spread of intended slots and
/// of permit/deny, whatever the seed; plain random draws made the cost
/// of a run's slowest requests depend on the seed.
#[derive(Clone, Copy)]
struct Spread {
    start: f64,
    step: f64,
}

impl Spread {
    /// Steps for independent sequences: the golden and silver ratios.
    const STEPS: [f64; 2] = [0.618_033_988_749_894_9, 0.414_213_562_373_095_1];

    fn new(rng: &mut StdRng, step: f64) -> Spread {
        Spread {
            start: rng.gen(),
            step,
        }
    }

    fn at(self, j: usize) -> f64 {
        (self.start + j as f64 * self.step).fract()
    }

    /// A slot in `0..=len`.
    fn slot(self, j: usize, len: usize) -> usize {
        ((self.at(j) * (len + 1) as f64) as usize).min(len)
    }
}

/// `scripts` scripts of [`ROUNDS`] rounds into one target that starts
/// with `len` rules. `prompt` gets the pool-wide intent index `j` and the
/// action: the generators lay out every property that drives the cost of
/// a request (overlap count, regex atoms, object kind) as a fixed cycle
/// over `j`, and slots and actions as [`Spread`]s, so every seed — and
/// every prefix of the pool a short run gets through — carries the same
/// mix; the seed draws the rest.
fn pool(
    rng: &mut StdRng,
    scripts: usize,
    base: &str,
    target: &str,
    kind: Kind,
    len: usize,
    mut prompt: impl FnMut(&mut StdRng, usize, bool) -> String,
) -> Vec<Script> {
    let slots = Spread::new(rng, Spread::STEPS[0]);
    let actions = Spread::new(rng, Spread::STEPS[1]);
    (0..scripts)
        .map(|i| {
            let rounds = (0..ROUNDS)
                .map(|r| {
                    let j = ROUNDS * i + r;
                    Round {
                        target: target.to_string(),
                        kind,
                        prompt: prompt(rng, j, actions.at(j) < 0.5),
                        slot: slots.slot(j, len + r),
                    }
                })
                .collect();
            script(base.to_string(), rounds)
        })
        .collect()
}

/// `e1_storm`: the §2 `ISP_OUT` policy (3 stanzas). Intent 0 is the
/// paper's own prompt; the rest cycle through the prefix, community,
/// origin-AS and local-preference variants that give 0–3 overlapping
/// stanzas, with seeded community values, sets and slots.
fn e1_storm(rng: &mut StdRng) -> Vec<Script> {
    pool(rng, 32, ISP_OUT, "ISP_OUT", Kind::RouteMap, 3, e1_prompt)
}

fn e1_prompt(rng: &mut StdRng, j: usize, permit: bool) -> String {
    if j == 0 {
        return RouteMapIntent {
            permit: true,
            prefixes: vec![(prefix(100, 0, 0, 16), PrefixConstraint::Le(23))],
            communities: vec![Community::new(300, 3)],
            sets: vec![SetIntent::Metric(55)],
            ..Default::default()
        }
        .render_prompt();
    }
    let prefixes = [
        (prefix(100, 0, 0, 16), PrefixConstraint::Le(23)),
        (prefix(10, 1, 0, 16), PrefixConstraint::Le(24)),
        (prefix(20, 0, 0, 16), PrefixConstraint::Exact),
        (prefix(1, 0, 0, 20), PrefixConstraint::Ge(24)),
        (prefix(172, 16, 0, 12), PrefixConstraint::Le(24)),
        (prefix(8, 8, 0, 16), PrefixConstraint::Exact),
    ];
    let communities = [
        Community::new(300, 3),
        Community::new(100, 1),
        Community::new(65000, 7),
    ];
    let mut intent = RouteMapIntent {
        permit,
        prefixes: vec![prefixes[j % 6]],
        origin_as: [None, Some(100), Some(32)][j / 12 % 3],
        match_local_pref: [None, Some(200), Some(300)][j / 36 % 3],
        ..Default::default()
    };
    if j / 6 % 2 == 1 {
        intent.communities = vec![communities[rng.gen_range(0..communities.len())]];
    }
    if permit {
        intent.sets = match rng.gen_range(0..3usize) {
            0 => vec![SetIntent::Metric(rng.gen_range(1..1000u32))],
            1 => vec![SetIntent::LocalPref(rng.gen_range(1..1000u32))],
            _ => Vec::new(),
        };
    }
    intent.render_prompt()
}

/// `wide_policy`: one 96-stanza route-map over nested prefix lists under
/// 10/8 (mostly /16–/24, every eighth a /12 covering its neighbours).
/// Every third stanza also matches its own community regex, every fifth
/// its own as-path regex (about 50 regex atoms in all), and actions
/// alternate. Intents cover a /9–/12 under 10/8, so each overlaps 20–96
/// stanzas; half also match one of the base's communities. The base
/// does not depend on the seed: its regex numbering alone moves the cost
/// of a lint by 10%.
fn wide_policy(rng: &mut StdRng) -> Vec<Script> {
    const N: usize = 96;
    let mut lists = String::new();
    let mut maps = String::new();
    for i in 0..N {
        // Second octets spread evenly over 0..64, so each quarter of that
        // range holds a quarter of the stanzas.
        let len = [16u8, 20, 24, 16, 20, 24, 16, 12][i % 8];
        let p = prefix(10, (i * 41 % 64) as u8, (i * 7 % 16 * 16) as u8, len);
        lists.push_str(&format!("ip prefix-list WP{i} seq 5 permit {p} le 32\n"));
        let permit = i % 2 == 0;
        maps.push_str(&format!(
            "route-map WIDE {} {}\n match ip address prefix-list WP{i}\n",
            if permit { "permit" } else { "deny" },
            (i + 1) * 10
        ));
        if i % 3 == 0 {
            lists.push_str(&format!(
                "ip community-list expanded WC{i} permit _65000:{}_\n",
                i / 3 + 1
            ));
            maps.push_str(&format!(" match community WC{i}\n"));
        }
        if i % 5 == 0 {
            lists.push_str(&format!(
                "ip as-path access-list WA{i} permit _{}$\n",
                64512 + i
            ));
            maps.push_str(&format!(" match as-path WA{i}\n"));
        }
        if permit {
            maps.push_str(&format!(" set metric {}\n", 100 + i));
        }
    }
    let base = format!("{lists}{maps}");
    pool(
        rng,
        8,
        &base,
        "WIDE",
        Kind::RouteMap,
        N,
        |rng, j, permit| {
            let len = 9 + (j % 4) as u8;
            // An aligned /len in quarter `j / 8 % 4` of 10.0/10.
            let second = (j / 8 % 4 * 16) as u8 & !((1u16 << (16 - len)) - 1) as u8;
            let mut intent = RouteMapIntent {
                permit,
                prefixes: vec![(prefix(10, second, 0, len), PrefixConstraint::Le(32))],
                ..Default::default()
            };
            if j / 4 % 2 == 1 {
                intent.communities = vec![Community::new(65000, rng.gen_range(1..=32u16))];
            }
            if permit {
                intent.sets = vec![SetIntent::Metric(rng.gen_range(1..1000u32))];
            }
            intent.render_prompt()
        },
    )
}

/// `acl_policy`: one 64-entry extended ACL of tcp/udp rules over nested
/// source prefixes under 10/8, a few destination networks, and single
/// ports or port ranges; actions alternate. Intents cover a /8–/16 source
/// and a port band, so they overlap from a few entries to most of them.
/// As for `wide_policy`, the base does not depend on the seed.
fn acl_policy(rng: &mut StdRng) -> Vec<Script> {
    const N: usize = 64;
    let mut base = String::from("ip access-list extended EDGE\n");
    for i in 0..N {
        let proto = ["tcp", "udp"][i % 2];
        let len = [8u8, 12, 16, 16, 24][i % 5];
        let src = prefix(10, (i * 7 % 32) as u8, (i % 8) as u8, len);
        let dst = match i % 3 {
            0 => "any".to_string(),
            1 => prefix(192, 168, (i / 3 % 8) as u8, 24).to_string(),
            _ => prefix(172, 16, 0, 12).to_string(),
        };
        let ports = if i % 4 < 2 {
            format!("eq {}", [22u16, 53, 80, 443, 8080][i / 4 % 5])
        } else {
            let lo = (i * 13 % 60 * 100) as u16;
            format!("range {lo} {}", lo + 500 + (i * 97 % 1500) as u16)
        };
        let action = ["permit", "deny"][i / 2 % 2];
        base.push_str(&format!(" {action} {proto} {src} {dst} {ports}\n"));
    }
    pool(rng, 16, &base, "EDGE", Kind::Acl, N, |_, j, permit| {
        let len = [8u8, 10, 12, 16][j / 2 % 4];
        let second = match len {
            12 => (j / 16 % 2 * 16) as u8,
            16 => (j * 7 % 32) as u8,
            _ => 0,
        };
        let lo = (j * 7 % 40 * 100) as u16;
        AclIntent {
            permit,
            protocol: [Protocol::Tcp, Protocol::Udp][j % 2],
            src: AddrIntent::Net(prefix(10, second, 0, len)),
            dst: if j / 8 % 2 == 0 {
                AddrIntent::Any
            } else {
                AddrIntent::Net(prefix(192, 168, 0, 21))
            },
            src_ports: PortRange::ANY,
            dst_ports: PortRange::new(lo, lo + 1000 + (j * 331 % 2000) as u16),
        }
        .render_prompt()
    })
}

/// `lint_edits`: the §3 family at editor scale — 32 nested route-maps
/// with their prefix lists, 128 clean and 64 crossing ACLs (about 400
/// objects). Each script opens a copy changed by 1–4 seeded random edits
/// (kept only while every reference still resolves, since an insertion
/// into a configuration with a dangling reference is refused), then
/// inserts a stanza into a small route-map, an entry into an ACL and
/// another stanza into a route-map, with intents that add no regex
/// pattern, so every re-lint is insertion-sized. The random edits only
/// vary the opened configuration: the protocol has no request that edits
/// a session's configuration, so they reach the cold lint, never a
/// re-lint. As for `wide_policy`, the base does not depend on the seed,
/// so the seed moves only the edits and the insertions, not the size of
/// the objects every cold lint walks.
fn lint_edits(rng: &mut StdRng) -> Vec<Script> {
    let mut base = Config::new();
    for m in 0..32 {
        let map = clarify_workload::nested_route_map_config(&format!("RM{m:02}"), 5, m % 3);
        base.merge(map).expect("generated names are distinct");
    }
    let mut base_rng = StdRng::seed_from_u64(fnv1a64(b"lint_edits base"));
    for a in 0..128 {
        let acl = clarify_workload::clean_acl(&mut base_rng, &format!("CLEAN{a:03}"), 4);
        base.acls.insert(acl.name.clone(), acl);
    }
    for a in 0..64 {
        let acl = clarify_workload::cross_acl(&mut base_rng, &format!("CROSS{a:02}"), 3, 2);
        base.acls.insert(acl.name.clone(), acl);
    }
    let slots = Spread::new(rng, Spread::STEPS[0]);
    let actions = Spread::new(rng, Spread::STEPS[1]);
    (0..16)
        .map(|i| {
            let mut cfg = base.clone();
            let mut source = Source::recording(rng.gen());
            let mut applied = 0;
            let edits = rng.gen_range(1..=4usize);
            while applied < edits {
                let mut next = cfg.clone();
                apply_random_edit(&mut source, &mut next);
                if next.validate().is_ok() {
                    cfg = next;
                    applied += 1;
                }
            }
            let mut rounds: Vec<Round> = Vec::new();
            for r in 0..ROUNDS {
                let j = ROUNDS * i + r;
                let mut round = if r == 1 {
                    acl_round(rng, &cfg, actions.at(j) < 0.5)
                } else {
                    route_map_round(rng, &cfg, actions.at(j) < 0.5)
                };
                // Earlier rounds into the same object grew it by one rule each.
                let len = match round.kind {
                    Kind::RouteMap => cfg.route_maps[&round.target].stanzas.len(),
                    Kind::Acl => cfg.acls[&round.target].entries.len(),
                } + rounds.iter().filter(|p| p.target == round.target).count();
                round.slot = slots.slot(j, len);
                rounds.push(round);
            }
            script(cfg.to_string(), rounds)
        })
        .collect()
}

fn pick<'a, T>(
    rng: &mut StdRng,
    map: &'a std::collections::BTreeMap<String, T>,
) -> (&'a String, &'a T) {
    map.iter()
        .nth(rng.gen_range(0..map.len()))
        .expect("index is in range")
}

/// A stanza for a random route-map (the slot is set by the caller).
fn route_map_round(rng: &mut StdRng, cfg: &Config, permit: bool) -> Round {
    let (target, _) = pick(rng, &cfg.route_maps);
    Round {
        target: target.clone(),
        kind: Kind::RouteMap,
        prompt: RouteMapIntent {
            permit,
            prefixes: vec![(
                prefix(10, rng.gen_range(0..6u8), 0, 16),
                PrefixConstraint::Le(32),
            )],
            sets: vec![SetIntent::Metric(rng.gen_range(1..1000u32))],
            ..Default::default()
        }
        .render_prompt(),
        slot: 0,
    }
}

/// An entry for a random ACL (the slot is set by the caller).
fn acl_round(rng: &mut StdRng, cfg: &Config, permit: bool) -> Round {
    let (target, acl) = pick(rng, &cfg.acls);
    // Aim at one existing entry's source so the intent overlaps it.
    let src = acl.entries[rng.gen_range(0..acl.entries.len())]
        .src
        .as_prefix();
    Round {
        target: target.clone(),
        kind: Kind::Acl,
        prompt: AclIntent {
            permit,
            protocol: Protocol::Tcp,
            src: AddrIntent::Net(src),
            dst: AddrIntent::Any,
            src_ports: PortRange::ANY,
            dst_ports: PortRange::new(0, rng.gen_range(500..2000u16)),
        }
        .render_prompt(),
        slot: 0,
    }
}
