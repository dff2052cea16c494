//! The typed scenario schema: what a zoo file can say.
//!
//! A scenario declares a ring, one or more co-hosted index schemes, a
//! set of tenants issuing Zipf-skewed publish/query mixes against those
//! indexes, optional faults and a mid-run rebalance, and the invariants
//! the run must satisfy. Every knob has a default, so minimal files
//! stay minimal; unknown keys are rejected so a typo cannot silently
//! disable the invariant it was meant to tighten.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::toml;

/// A parsed, validated scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario name — must match the file stem; keys the golden file.
    pub name: String,
    /// Free-text description (shows up in failure reports).
    pub description: String,
    /// Root seed for everything: data, pools, arrivals, ring ids.
    pub seed: u64,
    /// Overlay and system knobs.
    pub ring: RingSpec,
    /// Fault plane (loss + crash/restart window).
    pub faults: FaultSpec,
    /// Co-hosted index schemes, in declaration order.
    pub indexes: Vec<IndexDecl>,
    /// Traffic sources, in declaration order.
    pub tenants: Vec<TenantDecl>,
    /// Optional mid-run dynamic rebalance (§3.4 leave-and-rejoin).
    pub rebalance: Option<RebalanceDecl>,
    /// The invariants the runner enforces.
    pub expect: ExpectDecl,
}

/// `[ring]` — the overlay the scenario runs on.
#[derive(Clone, Debug)]
pub struct RingSpec {
    /// Node count.
    pub nodes: usize,
    /// Bisection depth of every index grid.
    pub depth: u32,
    /// Successor-list length.
    pub successors: usize,
    /// PNS candidates (0 = plain fingers).
    pub pns: usize,
    /// Top-k merged at the querier.
    pub knn_k: usize,
    /// Join-time balancing on index 0's keys.
    pub load_aware_join: bool,
    /// Build-time dynamic load migration.
    pub lb: Option<LbDecl>,
    /// Replication factor; > 1 switches on the resilience layer.
    pub replication: usize,
}

/// `[ring.lb]` / `[rebalance]` — dynamic-migration knobs.
#[derive(Clone, Copy, Debug)]
pub struct LbDecl {
    /// Trigger threshold factor δ.
    pub delta: f64,
    /// Probe level P_l.
    pub probe_level: u32,
    /// Maximum migration rounds.
    pub max_rounds: usize,
}

/// `[faults]` — message loss and a crash/restart window.
#[derive(Clone, Copy, Debug)]
pub struct FaultSpec {
    /// Independent per-message drop probability.
    pub loss: f64,
    /// Nodes crashed for the middle third of the op sequence.
    pub crashes: usize,
}

/// `[[index]]` — one co-hosted index scheme.
#[derive(Clone, Debug)]
pub struct IndexDecl {
    /// Index name (rotation-offset seed when `rotate`).
    pub name: String,
    /// The metric space + generator.
    pub scheme: SchemeDecl,
    /// Stagger this index's ring placement (§3.4 static rotation).
    pub rotate: bool,
    /// Explicit rotation offset override (ablation control).
    pub rotation: Option<u64>,
    /// Landmark count (index-space dimensionality).
    pub landmarks: usize,
    /// Sample size for landmark selection and boundary estimation.
    pub sample: usize,
    /// Query radius. Clustered: fraction of the box diameter; docs:
    /// fraction of π/2; strings: absolute edit operations; timeseries:
    /// absolute L2 distance.
    pub radius: f64,
    /// Extra seed XORed into the data generator — two indexes with the
    /// same scheme, params and `data_seed` host the *same* dataset
    /// (the rotation-ablation setup).
    pub data_seed: u64,
}

/// Which generator + metric an index hosts.
#[derive(Clone, Debug)]
pub enum SchemeDecl {
    /// Clustered Gaussian vectors under L2.
    Clustered {
        /// Object count.
        objects: usize,
        /// Dimensionality.
        dims: usize,
        /// Mixture components.
        clusters: usize,
        /// Within-cluster deviation.
        deviation: f64,
    },
    /// Mutation-family DNA strings under edit distance.
    Strings {
        /// Ancestor count.
        families: usize,
        /// Descendants per ancestor.
        members: usize,
    },
    /// TF-IDF documents under the angular (cosine) metric.
    Docs {
        /// Document count.
        docs: usize,
        /// Vocabulary size.
        vocab: usize,
        /// Subject areas documents cluster into.
        areas: usize,
    },
    /// Sliding windows of a motif-seeded series under L2.
    Timeseries {
        /// Series length.
        length: usize,
        /// Window size (dimensionality).
        window: usize,
        /// Window stride.
        stride: usize,
        /// Distinct motifs planted.
        motifs: usize,
        /// Occurrences per motif.
        repeats: usize,
        /// Per-sample plant noise.
        noise: f64,
    },
}

/// `[[tenant]]` — one traffic source.
#[derive(Clone, Debug)]
pub struct TenantDecl {
    /// Tenant name (keys the per-tenant digest section).
    pub name: String,
    /// Which `[[index]]` (by name) this tenant targets.
    pub index: String,
    /// Query ops issued.
    pub queries: usize,
    /// Publish ops issued (runtime insertions).
    pub publishes: usize,
    /// Distinct query objects the tenant draws from.
    pub pool: usize,
    /// Zipf skew over the pool (0 = uniform; larger = hotter head).
    pub zipf: f64,
    /// Fixed issuing nodes (0 = a fresh uniform origin per op).
    pub origins: usize,
    /// Flash crowd: from this op index (per-tenant) …
    pub flash_at: Option<usize>,
    /// … for this many ops, every draw is pool item 0 from the first
    /// fixed origin.
    pub flash_len: usize,
}

/// `[rebalance]` — one §3.4 dynamic-migration pass mid-run.
#[derive(Clone, Copy, Debug)]
pub struct RebalanceDecl {
    /// Run the pass after this fraction of the op sequence.
    pub after_frac: f64,
    /// Migration knobs.
    pub lb: LbDecl,
}

/// `[expect]` — the invariants the runner enforces.
#[derive(Clone, Copy, Debug)]
pub struct ExpectDecl {
    /// Minimum recall over every query op.
    pub min_recall: f64,
    /// Maximum delivery path length over every query op.
    pub max_hops: u64,
    /// Every query op must complete (receive ≥ 1 result).
    pub all_complete: bool,
    /// Per-index entry conservation (base + published == stored).
    pub conservation: bool,
    /// Lower bound on `lb.migrations` (rebalance must trigger).
    pub min_migrations: Option<u64>,
    /// Upper bound on `lb.migrations` (rebalance must NOT trigger).
    pub max_migrations: Option<u64>,
    /// Upper bound on the hottest node's share of the *combined*
    /// (cross-index) stored load, in micro-units (1e6 = everything on
    /// one node). The rotation-staggering invariant.
    pub max_combined_load_micros: Option<u64>,
    /// Lower bound on the same share — the offsets-equal control must
    /// demonstrably pile up.
    pub min_combined_load_micros: Option<u64>,
}

/// Typed read helpers over the parsed TOML tree. Each consumes its key
/// so [`Ctx::finish`] can reject unknown leftovers.
struct Ctx {
    map: BTreeMap<String, Value>,
    at: String,
}

impl Ctx {
    fn new(v: Value, at: &str) -> Result<Ctx, String> {
        match v {
            Value::Object(map) => Ok(Ctx {
                map,
                at: at.to_string(),
            }),
            _ => Err(format!("{at}: expected a table")),
        }
    }

    fn take(&mut self, key: &str) -> Option<Value> {
        self.map.remove(key)
    }

    fn str(&mut self, key: &str) -> Result<Option<String>, String> {
        match self.take(key) {
            None => Ok(None),
            Some(Value::String(s)) => Ok(Some(s)),
            Some(_) => Err(format!("{}.{key}: expected a string", self.at)),
        }
    }

    fn u64(&mut self, key: &str) -> Result<Option<u64>, String> {
        match self.take(key) {
            None => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("{}.{key}: expected a non-negative integer", self.at)),
        }
    }

    fn u32(&mut self, key: &str) -> Result<Option<u32>, String> {
        let Some(v) = self.u64(key)? else {
            return Ok(None);
        };
        u32::try_from(v)
            .map(Some)
            .map_err(|_| format!("{}.{key}: {v} is out of range", self.at))
    }

    fn usize(&mut self, key: &str) -> Result<Option<usize>, String> {
        Ok(self.u64(key)?.map(|v| v as usize))
    }

    fn f64(&mut self, key: &str) -> Result<Option<f64>, String> {
        match self.take(key) {
            None => Ok(None),
            Some(v) => v
                .as_f64()
                .map(Some)
                .ok_or_else(|| format!("{}.{key}: expected a number", self.at)),
        }
    }

    fn bool(&mut self, key: &str) -> Result<Option<bool>, String> {
        match self.take(key) {
            None => Ok(None),
            Some(Value::Bool(b)) => Ok(Some(b)),
            Some(_) => Err(format!("{}.{key}: expected a boolean", self.at)),
        }
    }

    /// Error on any key nobody consumed: typos must not silently relax
    /// an invariant.
    fn finish(self) -> Result<(), String> {
        if let Some(key) = self.map.keys().next() {
            return Err(format!("{}: unknown key `{key}`", self.at));
        }
        Ok(())
    }
}

/// The `delta`/`probe_level`/`max_rounds` keys `[ring.lb]` and
/// `[rebalance]` share.
fn lb_keys(c: &mut Ctx) -> Result<LbDecl, String> {
    Ok(LbDecl {
        delta: c.f64("delta")?.unwrap_or(0.0),
        probe_level: c.u32("probe_level")?.unwrap_or(4),
        max_rounds: c.usize("max_rounds")?.unwrap_or(8),
    })
}

fn parse_lb(v: Value, at: &str) -> Result<LbDecl, String> {
    let mut c = Ctx::new(v, at)?;
    let lb = lb_keys(&mut c)?;
    c.finish()?;
    Ok(lb)
}

impl Scenario {
    /// Parse and validate a scenario document.
    pub fn from_toml(text: &str) -> Result<Scenario, String> {
        let root = toml::parse(text)?;
        let mut root = Ctx::new(root, "scenario file")?;

        let mut meta = Ctx::new(
            root.take("scenario")
                .ok_or("missing [scenario] table".to_string())?,
            "scenario",
        )?;
        let name = meta.str("name")?.ok_or("scenario.name is required")?;
        let description = meta.str("description")?.unwrap_or_default();
        let seed = meta.u64("seed")?.ok_or("scenario.seed is required")?;
        meta.finish()?;

        let mut ring = Ctx::new(
            root.take("ring")
                .ok_or("missing [ring] table".to_string())?,
            "ring",
        )?;
        let lb = ring
            .take("lb")
            .map(|v| parse_lb(v, "ring.lb"))
            .transpose()?;
        let ring = {
            let spec = RingSpec {
                nodes: ring.usize("nodes")?.ok_or("ring.nodes is required")?,
                depth: ring.u32("depth")?.unwrap_or(16),
                successors: ring.usize("successors")?.unwrap_or(16),
                pns: ring.usize("pns")?.unwrap_or(16),
                knn_k: ring.usize("knn_k")?.unwrap_or(10),
                load_aware_join: ring.bool("load_aware_join")?.unwrap_or(false),
                lb,
                replication: ring.usize("replication")?.unwrap_or(1),
            };
            ring.finish()?;
            spec
        };
        if ring.nodes == 0 {
            return Err("ring.nodes: a ring needs at least one node".into());
        }
        if !(1..=64).contains(&ring.depth) {
            return Err(format!("ring.depth: {} is outside 1..=64", ring.depth));
        }

        let faults = match root.take("faults") {
            None => FaultSpec {
                loss: 0.0,
                crashes: 0,
            },
            Some(v) => {
                let mut c = Ctx::new(v, "faults")?;
                let f = FaultSpec {
                    loss: c.f64("loss")?.unwrap_or(0.0),
                    crashes: c.usize("crashes")?.unwrap_or(0),
                };
                c.finish()?;
                f
            }
        };
        if (faults.loss > 0.0 || faults.crashes > 0) && ring.replication < 2 {
            return Err("faults require ring.replication >= 2 (resilience layer)".into());
        }

        let indexes = match root.take("index") {
            Some(Value::Array(items)) => items
                .into_iter()
                .enumerate()
                .map(|(i, v)| parse_index(v, i))
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err("index: expected [[index]] tables".into()),
            None => return Err("at least one [[index]] is required".into()),
        };
        {
            let mut names: Vec<&str> = indexes.iter().map(|i| i.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            if names.len() != indexes.len() {
                return Err("index names must be unique".into());
            }
        }

        let tenants = match root.take("tenant") {
            Some(Value::Array(items)) => items
                .into_iter()
                .enumerate()
                .map(|(i, v)| parse_tenant(v, i))
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err("tenant: expected [[tenant]] tables".into()),
            None => return Err("at least one [[tenant]] is required".into()),
        };
        for t in &tenants {
            if !indexes.iter().any(|i| i.name == t.index) {
                return Err(format!(
                    "tenant `{}` targets unknown index `{}`",
                    t.name, t.index
                ));
            }
            if t.pool == 0 || t.queries + t.publishes == 0 {
                return Err(format!("tenant `{}` has no work (pool/ops)", t.name));
            }
            if t.flash_at.is_some() && t.origins == 0 {
                return Err(format!(
                    "tenant `{}`: a flash crowd needs fixed origins",
                    t.name
                ));
            }
            if faults.crashes > 0 && t.origins == 0 {
                return Err(format!(
                    "tenant `{}`: crash scenarios need fixed origins (a roaming \
                     op could be issued from a dead node)",
                    t.name
                ));
            }
        }

        let rebalance = root
            .take("rebalance")
            .map(|v| -> Result<RebalanceDecl, String> {
                let mut c = Ctx::new(v, "rebalance")?;
                let decl = RebalanceDecl {
                    after_frac: c.f64("after_frac")?.unwrap_or(0.5),
                    lb: lb_keys(&mut c)?,
                };
                c.finish()?;
                Ok(decl)
            })
            .transpose()?;

        let expect = match root.take("expect") {
            None => {
                return Err("missing [expect] table — a zoo scenario must assert something".into())
            }
            Some(v) => {
                let mut c = Ctx::new(v, "expect")?;
                let e = ExpectDecl {
                    min_recall: c.f64("min_recall")?.unwrap_or(1.0),
                    max_hops: c.u64("max_hops")?.unwrap_or(64),
                    all_complete: c.bool("all_complete")?.unwrap_or(true),
                    conservation: c.bool("conservation")?.unwrap_or(true),
                    min_migrations: c.u64("min_migrations")?,
                    max_migrations: c.u64("max_migrations")?,
                    max_combined_load_micros: c.u64("max_combined_load_micros")?,
                    min_combined_load_micros: c.u64("min_combined_load_micros")?,
                };
                c.finish()?;
                e
            }
        };
        root.finish()?;

        Ok(Scenario {
            name,
            description,
            seed,
            ring,
            faults,
            indexes,
            tenants,
            rebalance,
            expect,
        })
    }
}

fn parse_index(v: Value, pos: usize) -> Result<IndexDecl, String> {
    let at = format!("index[{pos}]");
    let mut c = Ctx::new(v, &at)?;
    let name = c.str("name")?.ok_or(format!("{at}.name is required"))?;
    let scheme_name = c.str("scheme")?.ok_or(format!("{at}.scheme is required"))?;
    let scheme = match scheme_name.as_str() {
        "clustered" => SchemeDecl::Clustered {
            objects: c.usize("objects")?.unwrap_or(800),
            dims: c.usize("dims")?.unwrap_or(8),
            clusters: c.usize("clusters")?.unwrap_or(4),
            deviation: c.f64("deviation")?.unwrap_or(8.0),
        },
        "strings" => SchemeDecl::Strings {
            families: c.usize("families")?.unwrap_or(20),
            members: c.usize("members")?.unwrap_or(9),
        },
        "docs" => SchemeDecl::Docs {
            docs: c.usize("docs")?.unwrap_or(400),
            vocab: c.usize("vocab")?.unwrap_or(2_000),
            areas: c.usize("areas")?.unwrap_or(8),
        },
        "timeseries" => SchemeDecl::Timeseries {
            length: c.usize("length")?.unwrap_or(2_000),
            window: c.usize("window")?.unwrap_or(32),
            stride: c.usize("stride")?.unwrap_or(8),
            motifs: c.usize("motifs")?.unwrap_or(4),
            repeats: c.usize("repeats")?.unwrap_or(6),
            noise: c.f64("noise")?.unwrap_or(0.3),
        },
        other => return Err(format!("{at}.scheme: unknown scheme `{other}`")),
    };
    let decl = IndexDecl {
        name,
        scheme,
        rotate: c.bool("rotate")?.unwrap_or(true),
        rotation: c.u64("rotation")?,
        landmarks: c.usize("landmarks")?.unwrap_or(4),
        sample: c.usize("sample")?.unwrap_or(150),
        radius: c.f64("radius")?.ok_or(format!("{at}.radius is required"))?,
        data_seed: c.u64("data_seed")?.unwrap_or(pos as u64),
    };
    c.finish()?;
    Ok(decl)
}

fn parse_tenant(v: Value, pos: usize) -> Result<TenantDecl, String> {
    let at = format!("tenant[{pos}]");
    let mut c = Ctx::new(v, &at)?;
    let decl = TenantDecl {
        name: c.str("name")?.unwrap_or_else(|| format!("tenant{pos}")),
        index: c.str("index")?.ok_or(format!("{at}.index is required"))?,
        queries: c.usize("queries")?.unwrap_or(0),
        publishes: c.usize("publishes")?.unwrap_or(0),
        pool: c.usize("pool")?.unwrap_or(8),
        zipf: c.f64("zipf")?.unwrap_or(0.0),
        origins: c.usize("origins")?.unwrap_or(0),
        flash_at: c.usize("flash_at")?,
        flash_len: c.usize("flash_len")?.unwrap_or(0),
    };
    c.finish()?;
    Ok(decl)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
[scenario]
name = "mini"
seed = 7
[ring]
nodes = 16
[[index]]
name = "vecs"
scheme = "clustered"
radius = 0.2
[[tenant]]
index = "vecs"
queries = 4
[expect]
"#;

    #[test]
    fn minimal_scenario_parses_with_defaults() {
        let s = Scenario::from_toml(MINIMAL).unwrap();
        assert_eq!(s.name, "mini");
        assert_eq!(s.ring.nodes, 16);
        assert_eq!(s.ring.depth, 16);
        assert_eq!(s.indexes.len(), 1);
        assert!(s.indexes[0].rotate);
        assert_eq!(s.tenants[0].pool, 8);
        assert_eq!(s.expect.min_recall, 1.0);
        assert!(s.expect.all_complete);
    }

    #[test]
    fn unknown_keys_and_bad_references_are_rejected() {
        for bad_key in [
            MINIMAL.replace("[expect]", "[expect]\ntypo_invariant = 1"),
            MINIMAL.replace("[expect]", "[expect]\nmin_cache_hits = 1"),
            MINIMAL.replace(
                "[ring]\nnodes = 16",
                "[ring]\nnodes = 16\nrouting_opt = true",
            ),
        ] {
            assert!(Scenario::from_toml(&bad_key)
                .unwrap_err()
                .contains("unknown key"));
        }
        let bad_ref = MINIMAL.replace("index = \"vecs\"", "index = \"nope\"");
        assert!(Scenario::from_toml(&bad_ref)
            .unwrap_err()
            .contains("unknown index"));
        let bad_faults = MINIMAL.replace(
            "[ring]\nnodes = 16",
            "[ring]\nnodes = 16\n[faults]\nloss = 0.1",
        );
        assert!(Scenario::from_toml(&bad_faults)
            .unwrap_err()
            .contains("replication"));
    }

    #[test]
    fn out_of_range_ring_values_are_rejected() {
        let ring = |extra: &str| MINIMAL.replace("[ring]\nnodes = 16", extra);
        for (text, key) in [
            (ring("[ring]\nnodes = 0"), "ring.nodes"),
            (ring("[ring]\nnodes = 16\ndepth = 0"), "ring.depth"),
            (ring("[ring]\nnodes = 16\ndepth = 65"), "ring.depth"),
            (ring("[ring]\nnodes = 16\ndepth = 4294967312"), "ring.depth"),
            (
                ring("[ring]\nnodes = 16\n[ring.lb]\nprobe_level = 4294967300"),
                "ring.lb.probe_level",
            ),
            (
                MINIMAL.replace(
                    "[expect]",
                    "[rebalance]\nprobe_level = 4294967300\n[expect]",
                ),
                "rebalance.probe_level",
            ),
        ] {
            let err = Scenario::from_toml(&text).unwrap_err();
            assert!(err.starts_with(key), "{key}: {err}");
        }
        let edge = ring("[ring]\nnodes = 1\ndepth = 64");
        let s = Scenario::from_toml(&edge).unwrap();
        assert_eq!((s.ring.nodes, s.ring.depth), (1, 64));
    }

    #[test]
    fn flash_crowd_requires_fixed_origins() {
        let flash = MINIMAL.replace("queries = 4", "queries = 4\nflash_at = 1\nflash_len = 2");
        assert!(Scenario::from_toml(&flash)
            .unwrap_err()
            .contains("fixed origins"));
        let ok = MINIMAL.replace(
            "queries = 4",
            "queries = 4\norigins = 1\nflash_at = 1\nflash_len = 2",
        );
        assert!(Scenario::from_toml(&ok).is_ok());
    }
}
