//! A scaled XMark-like document generator.
//!
//! The real XMark generator (`xmlgen`, \[28\]) is a C program we do not
//! have; this module reproduces the XMark DTD structure — regions with
//! items, recursive `description/parlist/listitem` content, mixed-markup
//! `text` with `bold`/`keyword`/`emph`, mailboxes, categories, people and
//! auctions, including the ID/IDREF attributes — so that the *summary* of
//! a generated document has the size and recursion characteristics the
//! paper's experiments depend on (hundreds of paths, bounded recursion
//! unfolding). Those experiments measure rewriting against the summary,
//! so the structure is what has to match: text is drawn from a small
//! word list, values are simpler than `xmlgen`'s, and a document's byte
//! size at a given scale differs from the original's.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use smv_xml::{Document, Label, TreeBuilder, Value};

/// Generation parameters.
#[derive(Clone, Debug)]
pub struct XmarkConfig {
    /// Scale factor: 1.0 ≈ tens of thousands of nodes (roughly the XMark
    /// 11 MB document's structural variety; sizes grow linearly).
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
    /// Maximum `parlist`/`listitem` recursion depth.
    pub max_parlist_depth: usize,
    /// Maximum markup (`bold`/`keyword`/`emph`) nesting depth.
    pub max_markup_depth: usize,
}

impl Default for XmarkConfig {
    fn default() -> Self {
        XmarkConfig {
            scale: 0.1,
            seed: 42,
            max_parlist_depth: 3,
            max_markup_depth: 3,
        }
    }
}

struct Gen {
    b: TreeBuilder,
    rng: StdRng,
    cfg: XmarkConfig,
    words: &'static [&'static str],
}

const WORDS: &[&str] = &[
    "gold",
    "plated",
    "pen",
    "ink",
    "fountain",
    "stainless",
    "steel",
    "invincia",
    "columbus",
    "monteverdi",
    "italic",
    "great",
    "rare",
    "vintage",
    "mint",
    "antique",
    "classic",
    "deluxe",
];

const REGIONS: &[&str] = &[
    "africa",
    "asia",
    "australia",
    "europe",
    "namerica",
    "samerica",
];

/// Generates an XMark-like document.
pub fn xmark(cfg: &XmarkConfig) -> Document {
    let rng = StdRng::seed_from_u64(cfg.seed);
    let mut g = Gen {
        b: TreeBuilder::new(),
        rng,
        cfg: cfg.clone(),
        words: WORDS,
    };
    let n_items = ((cfg.scale * 120.0).max(2.0)) as usize;
    let n_people = ((cfg.scale * 150.0).max(2.0)) as usize;
    let n_categories = ((cfg.scale * 60.0).max(2.0)) as usize;
    let n_open = ((cfg.scale * 70.0).max(1.0)) as usize;
    let n_closed = ((cfg.scale * 40.0).max(1.0)) as usize;

    g.b.open(l("site"));
    g.b.open(l("regions"));
    for (ri, region) in REGIONS.iter().enumerate() {
        g.b.open(l(region));
        let share = n_items / REGIONS.len() + usize::from(ri < n_items % REGIONS.len());
        for i in 0..share.max(1) {
            g.item(ri * 1000 + i, i == 0);
        }
        g.b.close();
    }
    g.b.close();

    g.b.open(l("categories"));
    for i in 0..n_categories {
        g.b.open(l("category"));
        g.attr("id", &format!("category{i}"));
        g.leaf_text("name");
        g.description(1);
        g.b.close();
    }
    g.b.close();

    g.b.open(l("catgraph"));
    for i in 0..n_categories.saturating_sub(1) {
        g.b.open(l("edge"));
        g.attr("from", &format!("category{i}"));
        g.attr("to", &format!("category{}", i + 1));
        g.b.close();
    }
    g.b.close();

    g.b.open(l("people"));
    for i in 0..n_people {
        g.person(i);
    }
    g.b.close();

    g.b.open(l("open_auctions"));
    for i in 0..n_open {
        g.open_auction(i, n_items, n_people);
    }
    g.b.close();

    g.b.open(l("closed_auctions"));
    for i in 0..n_closed {
        g.closed_auction(i, n_items, n_people);
    }
    g.b.close();

    g.b.close(); // site
    g.b.finish()
}

fn l(name: &str) -> Label {
    Label::intern(name)
}

impl Gen {
    fn attr(&mut self, name: &str, value: &str) {
        self.b
            .leaf(l(&format!("@{name}")), Some(Value::from_text(value)));
    }

    fn word(&mut self) -> &'static str {
        self.words[self.rng.random_range(0..self.words.len())]
    }

    fn leaf_text(&mut self, name: &str) {
        let w = self.word();
        self.b.leaf(l(name), Some(Value::str(w)));
    }

    fn leaf_int(&mut self, name: &str, max: i64) {
        let v = self.rng.random_range(0..max);
        self.b.leaf(l(name), Some(Value::int(v)));
    }

    /// Mixed-content text with nested bold/keyword/emph markup.
    fn text(&mut self, depth: usize) {
        self.b.open(l("text"));
        self.b.append_text(self.words[0]);
        if depth < self.cfg.max_markup_depth {
            let n = self.rng.random_range(0..3);
            for _ in 0..n {
                let tag = ["bold", "keyword", "emph"][self.rng.random_range(0..3)];
                self.b.open(l(tag));
                let w = self.word();
                self.b.append_text(w);
                if self.rng.random_bool(0.4) {
                    let tag2 = ["bold", "keyword", "emph"][self.rng.random_range(0..3)];
                    self.b.leaf(l(tag2), Some(Value::str(self.words[1])));
                }
                self.b.close();
            }
        }
        self.b.close();
    }

    fn parlist(&mut self, depth: usize) {
        self.b.open(l("parlist"));
        let n = self.rng.random_range(1..=2);
        for _ in 0..n {
            self.b.open(l("listitem"));
            if depth < self.cfg.max_parlist_depth && self.rng.random_bool(0.4) {
                self.parlist(depth + 1);
            } else {
                self.text(0);
            }
            self.b.close();
        }
        self.b.close();
    }

    fn description(&mut self, depth: usize) {
        self.b.open(l("description"));
        if self.rng.random_bool(0.5) {
            self.text(0);
        } else {
            self.parlist(depth);
        }
        self.b.close();
    }

    /// Mixed text guaranteed to carry a `keyword` child.
    fn text_with_keyword(&mut self) {
        self.b.open(l("text"));
        self.b.append_text(self.words[0]);
        self.b.open(l("keyword"));
        let w = self.word();
        self.b.append_text(w);
        self.b.close();
        self.b.close();
    }

    /// A description with the DTD's characteristic recursion spelled out:
    /// one `listitem` carrying `text/keyword` directly, and one unfolding
    /// `parlist` a second level. Emitted at deterministic positions (first
    /// item per region, first auction annotations) so the document summary
    /// always exhibits the XMark paths the paper's workload navigates,
    /// independent of the RNG stream.
    fn description_deep(&mut self) {
        self.b.open(l("description"));
        self.b.open(l("parlist"));
        self.b.open(l("listitem"));
        self.text_with_keyword();
        self.b.close();
        self.b.open(l("listitem"));
        self.b.open(l("parlist"));
        self.b.open(l("listitem"));
        self.text_with_keyword();
        self.b.close();
        self.b.close();
        self.b.close();
        self.b.close();
        self.b.close();
    }

    fn item(&mut self, id: usize, deep: bool) {
        self.b.open(l("item"));
        self.attr("id", &format!("item{id}"));
        if self.rng.random_bool(0.1) {
            self.attr("featured", "yes");
        }
        self.leaf_text("location");
        self.leaf_int("quantity", 10);
        self.leaf_text("name");
        self.leaf_text("payment");
        if deep {
            self.description_deep();
        } else {
            self.description(1);
        }
        self.b.open(l("shipping"));
        self.b.append_text("will ship internationally");
        self.b.close();
        let cats = self.rng.random_range(1..=2);
        for c in 0..cats {
            self.b.open(l("incategory"));
            self.attr("category", &format!("category{c}"));
            self.b.close();
        }
        self.b.open(l("mailbox"));
        let mails = self.rng.random_range(0..=3);
        for _ in 0..mails {
            self.b.open(l("mail"));
            self.leaf_text("from");
            self.leaf_text("to");
            self.leaf_int("date", 1_000_000);
            self.text(0);
            self.b.close();
        }
        self.b.close();
        self.b.close();
    }

    fn person(&mut self, id: usize) {
        self.b.open(l("person"));
        self.attr("id", &format!("person{id}"));
        self.leaf_text("name");
        self.leaf_text("emailaddress");
        if self.rng.random_bool(0.5) {
            self.leaf_text("phone");
        }
        if self.rng.random_bool(0.4) {
            self.b.open(l("address"));
            self.leaf_text("street");
            self.leaf_text("city");
            self.leaf_text("country");
            self.leaf_int("zipcode", 99999);
            self.b.close();
        }
        if self.rng.random_bool(0.3) {
            self.leaf_text("homepage");
        }
        if self.rng.random_bool(0.3) {
            self.leaf_text("creditcard");
        }
        if self.rng.random_bool(0.6) {
            self.b.open(l("profile"));
            let pick = self.rng.random_range(9000..100000);
            self.attr("income", &format!("{pick}"));
            let n = self.rng.random_range(0..=3);
            for c in 0..n {
                self.b.open(l("interest"));
                self.attr("category", &format!("category{c}"));
                self.b.close();
            }
            if self.rng.random_bool(0.5) {
                self.leaf_text("education");
            }
            if self.rng.random_bool(0.5) {
                self.leaf_text("gender");
            }
            self.leaf_text("business");
            if self.rng.random_bool(0.5) {
                self.leaf_int("age", 99);
            }
            self.b.close();
        }
        if self.rng.random_bool(0.4) {
            self.b.open(l("watches"));
            let n = self.rng.random_range(1..=2);
            for w in 0..n {
                self.b.open(l("watch"));
                self.attr("open_auction", &format!("open_auction{w}"));
                self.b.close();
            }
            self.b.close();
        }
        self.b.close();
    }

    fn annotation(&mut self, n_people: usize, deep: bool) {
        self.b.open(l("annotation"));
        self.b.open(l("author"));
        let pick = self.rng.random_range(0..n_people.max(1));
        self.attr("person", &format!("person{pick}"));
        self.b.close();
        if deep {
            self.description_deep();
        } else {
            self.description(1);
        }
        self.b.open(l("happiness"));
        let v = self.rng.random_range(1..=10);
        self.b.append_text(&v.to_string());
        self.b.close();
        self.b.close();
    }

    fn open_auction(&mut self, id: usize, n_items: usize, n_people: usize) {
        self.b.open(l("open_auction"));
        self.attr("id", &format!("open_auction{id}"));
        self.leaf_int("initial", 200);
        if self.rng.random_bool(0.5) {
            self.leaf_int("reserve", 300);
        }
        let bidders = self.rng.random_range(0..=3);
        for _ in 0..bidders {
            self.b.open(l("bidder"));
            self.leaf_int("date", 1_000_000);
            self.leaf_int("time", 86_400);
            self.b.open(l("personref"));
            let pick = self.rng.random_range(0..n_people.max(1));
            self.attr("person", &format!("person{pick}"));
            self.b.close();
            self.leaf_int("increase", 50);
            self.b.close();
        }
        self.leaf_int("current", 500);
        if self.rng.random_bool(0.3) {
            self.b.open(l("privacy"));
            self.b.append_text("yes");
            self.b.close();
        }
        self.b.open(l("itemref"));
        let pick = self.rng.random_range(0..n_items.max(1));
        self.attr("item", &format!("item{pick}"));
        self.b.close();
        self.b.open(l("seller"));
        let pick = self.rng.random_range(0..n_people.max(1));
        self.attr("person", &format!("person{pick}"));
        self.b.close();
        self.annotation(n_people, id == 0);
        self.leaf_int("quantity", 10);
        self.b.open(l("type"));
        self.b.append_text("Regular");
        self.b.close();
        self.b.open(l("interval"));
        self.leaf_int("start", 1_000_000);
        self.leaf_int("end", 2_000_000);
        self.b.close();
        self.b.close();
    }

    fn closed_auction(&mut self, id: usize, n_items: usize, n_people: usize) {
        self.b.open(l("closed_auction"));
        self.b.open(l("seller"));
        let pick = self.rng.random_range(0..n_people.max(1));
        self.attr("person", &format!("person{pick}"));
        self.b.close();
        self.b.open(l("buyer"));
        let pick = self.rng.random_range(0..n_people.max(1));
        self.attr("person", &format!("person{pick}"));
        self.b.close();
        self.b.open(l("itemref"));
        let pick = self.rng.random_range(0..n_items.max(1));
        self.attr("item", &format!("item{pick}"));
        self.b.close();
        self.leaf_int("price", 1000);
        self.leaf_int("date", 1_000_000);
        self.leaf_int("quantity", 5);
        self.b.open(l("type"));
        self.b.append_text("Regular");
        self.b.close();
        self.annotation(n_people, id == 0);
        self.b.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smv_summary::Summary;

    #[test]
    fn generates_deterministically() {
        let d1 = xmark(&XmarkConfig::default());
        let d2 = xmark(&XmarkConfig::default());
        assert_eq!(d1.len(), d2.len());
        assert_eq!(d1.label(d1.root()).as_str(), "site");
    }

    #[test]
    fn summary_has_xmark_shape() {
        let d = xmark(&XmarkConfig::default());
        let s = Summary::of(&d);
        // the characteristic paths exist
        for p in [
            "/site/regions/asia/item/description/parlist/listitem",
            "/site/regions/europe/item/mailbox/mail/text",
            "/site/people/person/profile/interest",
            "/site/open_auctions/open_auction/annotation/description",
            "/site/closed_auctions/closed_auction/itemref",
        ] {
            assert!(s.node_by_path(p).is_some(), "missing path {p}");
        }
        // recursion unfolds into distinct paths but is bounded
        assert!(
            s.node_by_path("/site/regions/asia/item/description/parlist/listitem/parlist/listitem")
                .is_some(),
            "parlist recursion should unfold at least twice"
        );
        // summary in the hundreds of nodes, like the paper's 548
        assert!(s.len() > 150, "|S| = {}", s.len());
        assert!(s.len() < 2000, "|S| = {}", s.len());
    }

    #[test]
    fn scale_grows_document_not_summary() {
        let small = xmark(&XmarkConfig {
            scale: 0.05,
            ..Default::default()
        });
        let big = xmark(&XmarkConfig {
            scale: 0.4,
            ..Default::default()
        });
        assert!(big.len() > 3 * small.len());
        let doc_growth = big.len() as f64 / small.len() as f64;
        let ss = Summary::of(&small).len() as f64;
        let sb = Summary::of(&big).len() as f64;
        assert!(
            sb / ss < doc_growth / 2.0,
            "summary grows much slower than the document: {ss} -> {sb} \
             vs doc x{doc_growth:.1} (the paper's Table 1 point)"
        );
    }
}
