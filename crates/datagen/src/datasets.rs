//! Scaled-down emulators of the paper's three real-life datasets.
//!
//! The originals (SNAP Amazon, ArnetMiner Citation, SFU YouTube crawls) are
//! not redistributable here, so each emulator reproduces the properties the
//! experiments actually exercise — size ratio, degree skew, cyclic vs
//! acyclic structure, label selectivity, attribute schema — at a chosen
//! [`Scale`] of the paper's node/edge counts; the table gives, per
//! dataset, the properties each emulator keeps.
//!
//! | dataset | paper size (V/E) | structure | label | attributes |
//! |---|---|---|---|---|
//! | Amazon | 548,552 / 1,788,725 | cyclic co-purchase | product group bucket | `group`, `sales_rank` |
//! | Citation | 1,397,240 / 3,021,489 | DAG (cites older) | research area | `area`, `year`, `venue` |
//! | YouTube | 1,609,969 / 4,509,826 | cyclic recommend | video category | `category`, `age`, `views`, `rate` |

use gpm_graph::{Attributes, DiGraph, GraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::synthetic::{synthetic_graph, SyntheticConfig};

/// Experiment scale relative to the paper's dataset sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 1/100 — unit tests, smoke runs.
    Small,
    /// 1/20 — default experiment scale (laptop-friendly minutes).
    Medium,
    /// 1/1 — the paper's sizes (hours; needs several GB of RAM).
    Paper,
}

impl Scale {
    /// Multiplier applied to the paper's node/edge counts.
    pub fn factor(self) -> f64 {
        match self {
            Scale::Small => 0.01,
            Scale::Medium => 0.05,
            Scale::Paper => 1.0,
        }
    }

    fn apply(self, n: usize) -> usize {
        ((n as f64 * self.factor()) as usize).max(100)
    }

    /// Parses the harness flag value.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// YouTube category names; `category` is also the node label, which is what
/// the Fig. 4 patterns filter on.
pub const YOUTUBE_CATEGORIES: [&str; 12] = [
    "music",
    "entertainment",
    "comedy",
    "film",
    "news",
    "sports",
    "gaming",
    "howto",
    "people",
    "travel",
    "autos",
    "education",
];

/// Amazon-like co-purchase network.
pub fn amazon_like(scale: Scale, seed: u64) -> DiGraph {
    let nodes = scale.apply(548_552);
    let edges = scale.apply(1_788_725);
    let base = synthetic_graph(&SyntheticConfig {
        nodes,
        edges,
        labels: 40, // product-group buckets
        seed,
        uniform_mix: 0.25,
        back_edge_fraction: 0.35, // "people who buy x also buy y" is mutual
        closure: 0.55,
        reciprocity: 0.4,
    });
    attach_attrs(base, seed, |rng, label, attrs| {
        let groups = ["Book", "Music", "DVD", "Video", "Toy", "Software"];
        attrs.set("group", groups[(label % groups.len() as u32) as usize]);
        attrs.set("sales_rank", rng.random_range(1..1_000_000i64));
    })
}

/// Citation-like DAG (papers cite strictly older papers).
pub fn citation_like(scale: Scale, seed: u64) -> DiGraph {
    let nodes = scale.apply(1_397_240);
    let edges = scale.apply(3_021_489);
    let base = synthetic_graph(&SyntheticConfig {
        nodes,
        edges,
        labels: 30, // research areas
        seed,
        uniform_mix: 0.2,
        back_edge_fraction: 0.0, // DAG
        closure: 0.45,           // co-citation clustering
        reciprocity: 0.0,
    });
    attach_attrs(base, seed, |rng, label, attrs| {
        attrs.set("area", format!("area{label}"));
        attrs.set("year", rng.random_range(1980..2013i64));
        attrs.set("venue", format!("venue{}", rng.random_range(0..200u32)));
    })
}

/// YouTube-like recommendation network.
pub fn youtube_like(scale: Scale, seed: u64) -> DiGraph {
    let nodes = scale.apply(1_609_969);
    let edges = scale.apply(4_509_826);
    let base = synthetic_graph(&SyntheticConfig {
        nodes,
        edges,
        labels: YOUTUBE_CATEGORIES.len() as u32,
        seed,
        uniform_mix: 0.25,
        back_edge_fraction: 0.3,
        closure: 0.5,
        reciprocity: 0.45, // related-video links are often mutual
    });
    attach_attrs(base, seed, |rng, label, attrs| {
        attrs.set("category", YOUTUBE_CATEGORIES[label as usize]);
        attrs.set("age", rng.random_range(1..2000i64));
        attrs.set("views", rng.random_range(0..1_000_000i64));
        attrs.set("rate", (rng.random_range(0..50i64) as f64) / 10.0);
    })
}

/// Rebuilds a generated topology with per-node attributes derived from the
/// label plus dataset-specific randomness.
fn attach_attrs(
    base: DiGraph,
    seed: u64,
    mut fill: impl FnMut(&mut StdRng, u32, &mut Attributes),
) -> DiGraph {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E3779B97F4A7C15);
    let mut b = GraphBuilder::with_capacity(base.node_count(), base.edge_count());
    for v in base.nodes() {
        let mut attrs = Attributes::new();
        fill(&mut rng, base.label(v), &mut attrs);
        b.add_node_with_attrs(base.label(v), attrs);
    }
    for e in base.edges() {
        b.add_edge(e.source, e.target).expect("nodes exist");
    }
    b.build()
}

/// Label id of a YouTube category name (for pattern construction).
pub fn youtube_label(category: &str) -> Option<u32> {
    YOUTUBE_CATEGORIES.iter().position(|&c| c == category).map(|i| i as u32)
}

#[allow(unused)]
fn _id(_: NodeId) {}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::stats::GraphStats;

    #[test]
    fn scales() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("medium"), Some(Scale::Medium));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
        assert!(Scale::Small.factor() < Scale::Medium.factor());
    }

    #[test]
    fn amazon_shape() {
        let g = amazon_like(Scale::Small, 1);
        assert!(g.node_count() >= 5_000);
        assert!(g.has_attributes());
        let a = g.attributes(0).unwrap();
        assert!(a.get("group").is_some());
        assert!(a.get("sales_rank").is_some());
        assert!(!GraphStats::compute(&g).is_dag);
    }

    #[test]
    fn citation_is_dag_with_attrs() {
        let g = citation_like(Scale::Small, 2);
        assert!(GraphStats::compute(&g).is_dag);
        let a = g.attributes(0).unwrap();
        let year = a.get("year").and_then(|v| v.as_f64()).unwrap();
        assert!((1980.0..2013.0).contains(&year));
    }

    #[test]
    fn youtube_labels_match_categories() {
        let g = youtube_like(Scale::Small, 3);
        assert!(!GraphStats::compute(&g).is_dag);
        assert_eq!(youtube_label("music"), Some(0));
        assert_eq!(youtube_label("nope"), None);
        for v in g.nodes().take(50) {
            let cat = g
                .attributes(v)
                .unwrap()
                .get("category")
                .and_then(|c| c.as_str())
                .unwrap()
                .to_owned();
            assert_eq!(youtube_label(&cat), Some(g.label(v)));
        }
    }

    #[test]
    fn reproducible() {
        let a = youtube_like(Scale::Small, 9);
        let b = youtube_like(Scale::Small, 9);
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(a.labels(), b.labels());
    }
}
