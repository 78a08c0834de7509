//! Seeded inputs. Every request a workload sends is a pure function of
//! `(seed, request id)`, so two runs with one seed send the same bytes and
//! the replay can rebuild any request from its id.

use adds_lang::programs as lp;
use adds_query::json::Json;

/// Which phase of a run a request belongs to. Phases draw from disjoint
/// streams, so warm-up and priming never pre-compute a measured request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pass {
    /// Set-up traffic: warm-up requests and the primed working set.
    Setup,
    /// The untraced measured window.
    Window,
    /// The shorter traced pass (and the replay, which reuses its ids).
    Traced,
    /// The procedure-count sweep behind `core.compile_typed_exponent`.
    Sweep,
}

/// One request's identity: phase, generator thread, and sequence number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReqId {
    pub pass: Pass,
    pub client: usize,
    pub index: u64,
}

impl ReqId {
    pub fn new(pass: Pass, client: usize, index: u64) -> ReqId {
        ReqId {
            pass,
            client,
            index,
        }
    }

    /// Stable label used in comments, trace args and error messages.
    pub fn label(&self) -> String {
        let pass = match self.pass {
            Pass::Setup => "s",
            Pass::Window => "w",
            Pass::Traced => "t",
            Pass::Sweep => "x",
        };
        format!("{pass}{}-{}", self.client, self.index)
    }
}

/// splitmix64: small, well mixed, and std-only.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// The generator of one request, independent of every other request's.
    pub fn for_request(seed: u64, id: ReqId) -> Rng {
        let mut rng = Rng(seed);
        for part in [id.pass as u64 + 1, id.client as u64 + 1, id.index + 1] {
            rng.0 ^= part.wrapping_mul(0xD6E8_FEB8_6659_FD93);
            rng.next_u64();
        }
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }
}

/// A corpus procedure used as a building block of generated programs,
/// with the verdict of each of its `while` loops in source order.
pub struct Template {
    pub name: &'static str,
    source: &'static str,
    ty: &'static str,
    func: &'static str,
    fields: &'static [&'static str],
    pub verdicts: &'static [bool],
}

/// The corpus loop templates. The verdicts are the paper's: the §3.3.2
/// list-scaling loop is parallel with the ADDS declaration and sequential
/// without it, and the §3.1.4 row loop of the orthogonal list is parallel
/// while its inner `across` walk is not. `list_sum` carries the scalar
/// accumulator `s` across iterations and the §3.3.1 subtree move has no
/// loop. [`check_goldens`] pins the first three against the committed
/// analyze goldens.
pub const TEMPLATES: [Template; 5] = [
    Template {
        name: "list_scale_adds",
        source: lp::LIST_SCALE_ADDS,
        ty: "ListNode",
        func: "scale",
        fields: &["coef", "exp", "next"],
        verdicts: &[true],
    },
    Template {
        name: "list_scale_plain",
        source: lp::LIST_SCALE_PLAIN,
        ty: "ListNode",
        func: "scale",
        fields: &["coef", "exp", "next"],
        verdicts: &[false],
    },
    Template {
        name: "orth_row_scale",
        source: lp::ORTH_ROW_SCALE,
        ty: "OrthList",
        func: "scale_rows",
        fields: &["data", "across", "down"],
        verdicts: &[true, false],
    },
    Template {
        name: "list_sum",
        source: lp::LIST_SUM,
        ty: "L",
        func: "sum",
        fields: &["v", "next"],
        verdicts: &[false],
    },
    Template {
        name: "subtree_move",
        source: lp::SUBTREE_MOVE,
        ty: "BinTree",
        func: "move_subtree",
        fields: &["data", "left", "right"],
        verdicts: &[],
    },
];

/// Expected loop verdicts per procedure, in program order.
pub type Verdicts = Vec<(String, &'static [bool])>;

/// A generated IL program and the verdicts its analysis must report.
pub struct Program {
    pub source: String,
    pub verdicts: Verdicts,
}

/// Concatenate `procs` randomly drawn templates, renaming the `k`-th
/// copy's type, procedure and fields with the suffix `_k`, and end with a
/// `// {tag}` comment so that no two generated programs share a cache key.
///
/// Fields are renamed because the loop analysis judges a field by its
/// name across every record type: a `next` without an ADDS declaration in
/// one copy of `list_scale_plain` makes the declared `next` of every
/// `list_scale_adds` copy in the same program sequential.
pub fn program(rng: &mut Rng, procs: usize, tag: &str) -> Program {
    let mut source = String::new();
    let mut verdicts = Vec::with_capacity(procs);
    for k in 0..procs {
        let t = &TEMPLATES[rng.below(TEMPLATES.len())];
        let suffixed = |name: &str| format!("{name}_{k}");
        let names: Vec<(&str, String)> = [t.ty, t.func]
            .iter()
            .chain(t.fields)
            .map(|&name| (name, suffixed(name)))
            .collect();
        source.push_str(&rename(t.source, &names));
        verdicts.push((suffixed(t.func), t.verdicts));
    }
    source.push_str(&format!("// {tag}\n"));
    Program { source, verdicts }
}

/// Replace whole identifiers of `src` by the map; everything else is
/// copied through unchanged.
fn rename(src: &str, map: &[(&str, String)]) -> String {
    let mut out = String::with_capacity(src.len() + 32);
    let mut rest = src;
    while let Some(start) = rest.find(|c: char| c.is_ascii_alphabetic() || c == '_') {
        out.push_str(&rest[..start]);
        let ident = &rest[start..];
        let len = ident
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(ident.len());
        let (word, tail) = ident.split_at(len);
        out.push_str(
            map.iter()
                .find(|(k, _)| *k == word)
                .map_or(word, |(_, v)| v.as_str()),
        );
        rest = tail;
    }
    out.push_str(rest);
    out
}

/// Zipf-skewed choice among `n` items whose popularity order is shuffled
/// by `rng`.
pub struct Zipf {
    cdf: Vec<f64>,
    order: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64, rng: &mut Rng) -> Zipf {
        let mut total = 0.0;
        let mut cdf = Vec::with_capacity(n);
        for rank in 1..=n {
            total += (rank as f64).powf(-exponent);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.below(i + 1));
        }
        Zipf { cdf, order }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.order[rank]
    }
}

/// `(function, [parallelizable per loop])` from an `adds.analyze/v2`
/// document, or `None` when the document does not have that shape.
pub fn loop_verdicts(doc: &Json) -> Option<Vec<(String, Vec<bool>)>> {
    let program = doc.get("programs")?.as_arr()?.first()?;
    let functions = program.get("analyze")?.get("functions")?.as_arr()?;
    functions
        .iter()
        .map(|f| {
            let loops = f.get("loops")?.as_arr()?;
            let verdicts = loops
                .iter()
                .map(|l| l.get("parallelizable")?.as_bool())
                .collect::<Option<Vec<bool>>>()?;
            Some((f.get("name")?.as_str()?.to_string(), verdicts))
        })
        .collect()
}

/// Cross-check the hard-coded template verdicts against the committed
/// analyze goldens of the same corpus programs.
pub fn check_goldens() -> Result<(), String> {
    let goldens = [
        (
            "list_scale_adds",
            include_str!("../../crates/cli/tests/golden/analyze_list_scale_adds.json"),
        ),
        (
            "orth_row_scale",
            include_str!("../../crates/cli/tests/golden/analyze_orth_row_scale.json"),
        ),
    ];
    for (name, text) in goldens {
        let t = TEMPLATES
            .iter()
            .find(|t| t.name == name)
            .expect("golden names a template");
        let doc = Json::parse(text).map_err(|e| format!("golden {name}: {e}"))?;
        let got = loop_verdicts(&doc).ok_or(format!("golden {name}: no analyze section"))?;
        let want = vec![(t.func.to_string(), t.verdicts.to_vec())];
        if got != want {
            return Err(format!(
                "template {name} expects {want:?} but its golden says {got:?}"
            ));
        }
    }
    Ok(())
}
