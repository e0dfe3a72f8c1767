//! Workspace symbol table and conservative call graph.
//!
//! Built from the per-file output of [`crate::parse`], the graph
//! resolves three call shapes, all *over-approximating* — a call site
//! may gain edges to fns it can never reach, but a real workspace
//! callee is never dropped (the property the fixture tests pin):
//!
//! * **free calls** `foo(..)` and bare fn references `map(foo)` — every
//!   free fn named `foo` anywhere in the workspace;
//! * **path calls** `Type::method(..)` / `Trait::method(..)` and path
//!   references `map(Type::method)` — exact `(type, method)` matches
//!   when the qualifier names a workspace type, every method named
//!   `method` when the qualifier is a workspace trait or a
//!   single-letter generic parameter, and nothing when the qualifier is
//!   an external (std/vendored) type;
//! * **receiver calls** `.method(..)` — every method named `method` on
//!   any workspace type (name-based, the big over-approximation).
//!
//! `use`-aliases and `type` aliases are resolved per file before the
//! qualifier is classified, and `Self::` resolves to the enclosing
//! impl's type. Closures and nested fns are part of the enclosing fn's
//! body (see [`crate::parse`]), so their calls are attributed to the
//! enclosing fn — again the sound direction for reachability lints.
//!
//! The one cut: a fn outside test regions never gains an edge into a
//! test-region fn, since a library build compiles no test region.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::{tokenize, Token};
use crate::parse::{parse_file, reserved_word, ParsedFile};
use crate::rules::FileClass;

/// One analyzed file: classification, token stream, parsed items.
#[derive(Debug)]
pub struct FileUnit {
    /// Where the file sits in the workspace.
    pub class: FileClass,
    /// Its token stream (comments/strings already stripped).
    pub tokens: Vec<Token>,
    /// Parsed item structure.
    pub parsed: ParsedFile,
}

/// One fn node in the workspace call graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Index of the defining file in [`CallGraph::files`].
    pub file: usize,
    /// The fn's identifier.
    pub name: String,
    /// Enclosing impl/trait type, or `None` for free fns.
    pub self_type: Option<String>,
    /// `pub` with no restriction.
    pub is_pub: bool,
    /// Defined inside a test-marked region.
    pub is_test: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Body token range in the defining file's stream.
    pub body: Option<(usize, usize)>,
}

/// Builder namespace for assembling a [`CallGraph`] from raw sources.
pub struct Workspace;

impl Workspace {
    /// Tokenizes, parses, and links `sources` (workspace-relative
    /// class + file contents) into a call graph.
    pub fn build(sources: Vec<(FileClass, String)>) -> CallGraph {
        let files: Vec<FileUnit> = sources
            .into_iter()
            .map(|(class, src)| {
                let tokens = tokenize(&src);
                let parsed = parse_file(&tokens);
                FileUnit {
                    class,
                    tokens,
                    parsed,
                }
            })
            .collect();
        CallGraph::link(files)
    }
}

/// The linked call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// All analyzed files.
    pub files: Vec<FileUnit>,
    /// All fn nodes; ids are indices into this vec.
    pub fns: Vec<FnNode>,
    /// Adjacency: `edges[f]` is the sorted, deduped callee list of `f`.
    pub edges: Vec<Vec<usize>>,
    /// Total edge count (sum of adjacency lengths).
    pub edge_count: usize,
}

impl CallGraph {
    /// Builds nodes and resolves call edges over parsed `files`.
    pub fn link(files: Vec<FileUnit>) -> CallGraph {
        let mut fns: Vec<FnNode> = Vec::new();
        for (fi, unit) in files.iter().enumerate() {
            for item in &unit.parsed.fns {
                fns.push(FnNode {
                    file: fi,
                    name: item.name.clone(),
                    self_type: item.self_type.clone(),
                    is_pub: item.is_pub,
                    is_test: item.is_test,
                    line: item.line,
                    body: item.body,
                });
            }
        }
        // Resolution indices.
        let mut impl_types: BTreeSet<&str> = BTreeSet::new();
        let mut traits: BTreeSet<&str> = BTreeSet::new();
        for unit in &files {
            impl_types.extend(unit.parsed.impl_types.iter().map(String::as_str));
            traits.extend(unit.parsed.traits.iter().map(String::as_str));
        }
        let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut type_methods: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut trait_methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (id, f) in fns.iter().enumerate() {
            match &f.self_type {
                None => free.entry(f.name.as_str()).or_default().push(id),
                Some(t) => {
                    methods.entry(f.name.as_str()).or_default().push(id);
                    type_methods
                        .entry((t.as_str(), f.name.as_str()))
                        .or_default()
                        .push(id);
                    if traits.contains(t.as_str()) {
                        trait_methods.entry(f.name.as_str()).or_default().push(id);
                    }
                }
            }
        }

        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        for (id, node) in fns.iter().enumerate() {
            let Some((lo, hi)) = node.body else { continue };
            let unit = &files[node.file];
            // Per-file alias map: `use .. as alias` plus `type X = Y;`.
            let mut aliases: BTreeMap<&str, &str> = BTreeMap::new();
            for u in &unit.parsed.uses {
                if let Some(last) = u.path.last() {
                    if u.alias != *last {
                        aliases.insert(u.alias.as_str(), last.as_str());
                    }
                }
            }
            for a in &unit.parsed.aliases {
                aliases.insert(a.alias.as_str(), a.target.as_str());
            }
            let mut callees: BTreeSet<usize> = BTreeSet::new();
            let index = Index {
                free: &free,
                methods: &methods,
                type_methods: &type_methods,
                trait_methods: &trait_methods,
                impl_types: &impl_types,
                traits: &traits,
            };
            scan_body(
                &unit.tokens,
                (lo, hi),
                node.self_type.as_deref(),
                &aliases,
                &index,
                &mut callees,
            );
            edges[id] = callees
                .into_iter()
                .filter(|&callee| node.is_test || !fns[callee].is_test)
                .collect();
        }
        let edge_count = edges.iter().map(Vec::len).sum();
        CallGraph {
            files,
            fns,
            edges,
            edge_count,
        }
    }

    /// `"Type::name"` / `"name"` — the display name of fn `id`.
    pub fn qualified(&self, id: usize) -> String {
        match &self.fns[id].self_type {
            Some(t) => format!("{t}::{}", self.fns[id].name),
            None => self.fns[id].name.clone(),
        }
    }

    /// Workspace-relative path of the file defining fn `id`.
    pub fn rel(&self, id: usize) -> &str {
        &self.files[self.fns[id].file].class.rel
    }

    /// BFS over call edges from `starts`, never entering a node for
    /// which `blocked` returns true. Returns the reached set and a
    /// parent map for chain reconstruction (`usize::MAX` = root/unset).
    pub fn reach<F: Fn(usize) -> bool>(&self, starts: &[usize], blocked: F) -> ReachSet {
        let mut reached = vec![false; self.fns.len()];
        let mut parent = vec![usize::MAX; self.fns.len()];
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &s in starts {
            if !blocked(s) && !reached[s] {
                reached[s] = true;
                queue.push_back(s);
            }
        }
        while let Some(f) = queue.pop_front() {
            for &g in &self.edges[f] {
                if !reached[g] && !blocked(g) {
                    reached[g] = true;
                    parent[g] = f;
                    queue.push_back(g);
                }
            }
        }
        ReachSet { reached, parent }
    }

    /// Fixed point of "has a panic site or calls a fn that does":
    /// `seeds[f]` marks fns with a *direct* site; the result marks every
    /// fn from which some seed is reachable.
    pub fn can_reach_seed(&self, seeds: &[bool]) -> Vec<bool> {
        // Reverse worklist propagation.
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); self.fns.len()];
        for (f, out) in self.edges.iter().enumerate() {
            for &g in out {
                rev[g].push(f);
            }
        }
        let mut can = seeds.to_vec();
        let mut queue: VecDeque<usize> = (0..self.fns.len()).filter(|&f| can[f]).collect();
        while let Some(g) = queue.pop_front() {
            for &f in &rev[g] {
                if !can[f] {
                    can[f] = true;
                    queue.push_back(f);
                }
            }
        }
        can
    }

    /// Shortest forward call chain from `from` to any fn marked in
    /// `targets`, as fn ids (`from` first). Empty when unreachable.
    pub fn chain_to(&self, from: usize, targets: &[bool]) -> Vec<usize> {
        if targets[from] {
            return vec![from];
        }
        let mut parent = vec![usize::MAX; self.fns.len()];
        let mut seen = vec![false; self.fns.len()];
        let mut queue: VecDeque<usize> = VecDeque::new();
        seen[from] = true;
        queue.push_back(from);
        while let Some(f) = queue.pop_front() {
            for &g in &self.edges[f] {
                if seen[g] {
                    continue;
                }
                seen[g] = true;
                parent[g] = f;
                if targets[g] {
                    let mut chain = vec![g];
                    let mut cur = g;
                    while parent[cur] != usize::MAX {
                        cur = parent[cur];
                        chain.push(cur);
                    }
                    chain.reverse();
                    return chain;
                }
                queue.push_back(g);
            }
        }
        Vec::new()
    }
}

/// Result of a forward reachability pass.
pub struct ReachSet {
    /// `reached[f]` — fn `f` is reachable from the start set.
    pub reached: Vec<bool>,
    /// BFS parent of each reached fn (`usize::MAX` for roots).
    pub parent: Vec<usize>,
}

impl ReachSet {
    /// Root-to-`id` chain of fn ids using the parent map.
    pub fn chain(&self, id: usize) -> Vec<usize> {
        let mut chain = vec![id];
        let mut cur = id;
        while self.parent[cur] != usize::MAX {
            cur = self.parent[cur];
            chain.push(cur);
        }
        chain.reverse();
        chain
    }
}

/// Tokens that end a bare-identifier *reference* interpretation: after
/// these, an ident is a declaration or a field, not a fn value.
const NON_REF_PREV: &[&str] = &[
    "fn", "let", "mod", "struct", "enum", "trait", "impl", "use", "type", "mut", "static", "union",
    "for", "as", "crate", "dyn", "ref", "break", "continue", "'",
];

/// The workspace resolution tables, borrowed for one linking pass.
struct Index<'a> {
    /// Free fns by name.
    free: &'a BTreeMap<&'a str, Vec<usize>>,
    /// All methods by name (any self type).
    methods: &'a BTreeMap<&'a str, Vec<usize>>,
    /// Methods by exact `(self type, name)`.
    type_methods: &'a BTreeMap<(&'a str, &'a str), Vec<usize>>,
    /// Trait-block methods (declarations with defaults) by name.
    trait_methods: &'a BTreeMap<&'a str, Vec<usize>>,
    /// Every type with a workspace impl block.
    impl_types: &'a BTreeSet<&'a str>,
    /// Every workspace-declared trait.
    traits: &'a BTreeSet<&'a str>,
}

/// Scans one fn body for call sites and resolves them into `callees`.
fn scan_body(
    tokens: &[Token],
    (lo, hi): (usize, usize),
    self_type: Option<&str>,
    aliases: &BTreeMap<&str, &str>,
    index: &Index<'_>,
    callees: &mut BTreeSet<usize>,
) {
    let hi = hi.min(tokens.len());
    for i in lo..hi {
        let t = &tokens[i];
        if !t.ident || reserved_word(&t.text) {
            continue;
        }
        let name = t.text.as_str();
        let next = tokens.get(i + 1).map(|n| n.text.as_str());
        let next_ident = tokens.get(i + 1).is_some_and(|n| n.ident);
        let prev = if i > 0 {
            tokens[i - 1].text.as_str()
        } else {
            ""
        };
        let prev_ident = i > 0 && tokens[i - 1].ident;
        if next == Some("!") {
            continue; // macro invocation, not a fn call
        }
        let is_call = next == Some("(") && !next_ident;
        // Path segment? (`::name`, and not followed by another `::`).
        let in_path = !prev_ident && prev == ":" && i >= 2 && tokens[i - 2].text == ":";
        let path_continues = next == Some(":")
            && tokens.get(i + 2).is_some_and(|n| n.text == ":")
            && tokens.get(i + 3).is_some_and(|n| n.ident);
        if in_path {
            if path_continues {
                continue; // middle segment of a longer path
            }
            // Qualifier is the ident two segments back (`qual::name`),
            // or recovered across a turbofish / qualified-path angle
            // block (`Type::<..>::name`, `<T as Trait>::name`).
            let qual = if i >= 3 && tokens[i - 3].ident {
                Some(tokens[i - 3].text.as_str())
            } else if i >= 3 && tokens[i - 3].text == ">" {
                qualifier_before_angles(tokens, i - 3)
            } else {
                None
            };
            resolve_path(qual, name, self_type, aliases, index, callees);
            continue;
        }
        if path_continues {
            continue; // first segment of a path; the final segment resolves
        }
        // Turbofish right after the name (`name::<..>`): still a call
        // or reference to `name`, not a path to something else.
        let turbofish = next == Some(":")
            && tokens.get(i + 2).is_some_and(|n| n.text == ":")
            && tokens.get(i + 3).is_some_and(|n| n.text == "<");
        if prev == "." && !prev_ident {
            if is_call || turbofish {
                // `.method(..)` / `.method::<..>(..)` — name-based,
                // every workspace method.
                if let Some(ids) = index.methods.get(name) {
                    callees.extend(ids.iter().copied());
                }
            }
            continue; // field access otherwise
        }
        if turbofish {
            // `helper::<T>(..)` — a free fn with explicit generics.
            if let Some(ids) = index.free.get(name) {
                callees.extend(ids.iter().copied());
            }
            continue;
        }
        if is_call {
            // Bare call: a free fn (or a shadowing closure — extra
            // edges are the sound direction).
            if let Some(ids) = index.free.get(name) {
                callees.extend(ids.iter().copied());
            }
            continue;
        }
        // Bare reference (`map(helper)` / `par_map_rows(n, t, work)`):
        // only resolves against free fns, and never in declaration or
        // field positions.
        if NON_REF_PREV.contains(&prev) || next == Some(":") {
            continue;
        }
        if let Some(ids) = index.free.get(name) {
            callees.extend(ids.iter().copied());
        }
    }
}

/// Recovers the path qualifier hidden behind a balanced `<..>` block
/// ending at `close`: the trait of `<T as Trait>` when present, else the
/// ident before a turbofish `qual::<..>`.
fn qualifier_before_angles(tokens: &[Token], close: usize) -> Option<&str> {
    let mut depth = 1usize;
    let mut j = close;
    while depth > 0 {
        j = j.checked_sub(1)?;
        match tokens[j].text.as_str() {
            ">" => depth += 1,
            "<" => depth -= 1,
            _ => {}
        }
    }
    // `<T as Trait>::name` — the trait governs method resolution.
    for k in j + 1..close {
        if tokens[k].text == "as" && tokens.get(k + 1).is_some_and(|n| n.ident) {
            return Some(tokens[k + 1].text.as_str());
        }
    }
    // `qual::<..>::name` — the ident before the turbofish's `::`.
    if j >= 3 && tokens[j - 1].text == ":" && tokens[j - 2].text == ":" && tokens[j - 3].ident {
        return Some(tokens[j - 3].text.as_str());
    }
    None
}

/// Resolves a `qual::name` path call/reference.
fn resolve_path(
    qual: Option<&str>,
    name: &str,
    self_type: Option<&str>,
    aliases: &BTreeMap<&str, &str>,
    index: &Index<'_>,
    callees: &mut BTreeSet<usize>,
) {
    let Some(mut qual) = qual else {
        // Leading `::name` (crate-absolute path): a free fn by name.
        // `<T as Trait>::name` resolves through the recovered trait
        // qualifier before reaching here.
        if let Some(ids) = index.free.get(name) {
            callees.extend(ids.iter().copied());
        }
        return;
    };
    if qual == "Self" {
        match self_type {
            Some(t) => qual = t,
            None => return,
        }
    }
    if let Some(&target) = aliases.get(qual) {
        qual = target;
    }
    let starts_upper = qual.chars().next().is_some_and(char::is_uppercase);
    if !starts_upper {
        // Module qualifier (`parallel::par_map_rows`): a free fn.
        if let Some(ids) = index.free.get(name) {
            callees.extend(ids.iter().copied());
        }
        return;
    }
    if index.traits.contains(qual) {
        // Trait-qualified call dispatches to any impl: name-based.
        if let Some(ids) = index.methods.get(name) {
            callees.extend(ids.iter().copied());
        }
        return;
    }
    if index.impl_types.contains(qual) {
        if let Some(ids) = index.type_methods.get(&(qual, name)) {
            callees.extend(ids.iter().copied());
        } else if let Some(ids) = index.trait_methods.get(name) {
            // Known type but no inherent method of that name: a trait
            // default inherited from a workspace trait. Resolve against
            // trait-block methods only — NOT all methods, or a workspace
            // impl on a std container (`impl From<..> for Vec<..>`)
            // would make `Vec::new()` an edge to every workspace `new`.
            callees.extend(ids.iter().copied());
        }
        return;
    }
    if qual.chars().count() == 1 {
        // Single-letter qualifier: a generic parameter (`T::method`),
        // which may instantiate to any workspace type.
        if let Some(ids) = index.methods.get(name) {
            callees.extend(ids.iter().copied());
        }
    }
    // Multi-letter unknown type (std/vendored): external, no edge. A
    // `use` alias shadowing a workspace type resolves above; plain
    // re-exports keep their own name and resolve via `impl_types`.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::classify;

    fn build(files: &[(&str, &str)]) -> CallGraph {
        Workspace::build(
            files
                .iter()
                .map(|(rel, src)| {
                    (
                        classify(rel).unwrap_or_else(|| panic!("{rel} classifies")),
                        (*src).to_owned(),
                    )
                })
                .collect(),
        )
    }

    fn id(g: &CallGraph, name: &str) -> usize {
        g.fns
            .iter()
            .position(|f| g.qualified(f_id(g, f)) == name || f.name == name)
            .unwrap_or_else(|| panic!("fn {name} in graph"))
    }

    fn f_id(g: &CallGraph, f: &FnNode) -> usize {
        g.fns
            .iter()
            .position(|x| std::ptr::eq(x, f))
            .expect("node in graph")
    }

    fn calls(g: &CallGraph, from: &str, to: &str) -> bool {
        g.edges[id(g, from)].contains(&id(g, to))
    }

    #[test]
    fn free_call_and_cross_file_resolution() {
        let g = build(&[
            (
                "crates/core/src/a.rs",
                "pub fn caller() { helper(); other::helper2(); }",
            ),
            (
                "crates/core/src/b.rs",
                "pub fn helper() {} pub fn helper2() {}",
            ),
        ]);
        assert!(calls(&g, "caller", "helper"));
        assert!(calls(&g, "caller", "helper2"));
    }

    #[test]
    fn type_and_receiver_method_resolution() {
        let g = build(&[(
            "crates/core/src/a.rs",
            "struct A; impl A { pub fn go(&self) { self.step(); } fn step(&self) {} }\n\
             struct B; impl B { fn step(&self) {} }\n\
             fn direct() { A::go(&A); }",
        )]);
        // `.step()` is name-based: both impls are callees.
        let go = id(&g, "A::go");
        let a_step = g
            .fns
            .iter()
            .position(|f| f.name == "step" && f.self_type.as_deref() == Some("A"))
            .expect("A::step");
        let b_step = g
            .fns
            .iter()
            .position(|f| f.name == "step" && f.self_type.as_deref() == Some("B"))
            .expect("B::step");
        assert!(g.edges[go].contains(&a_step));
        assert!(g.edges[go].contains(&b_step));
        // `A::go(..)` resolves exactly.
        assert!(calls(&g, "direct", "A::go"));
    }

    #[test]
    fn self_and_alias_qualifiers() {
        let g = build(&[(
            "crates/core/src/a.rs",
            "use crate::x::Engine as E;\n\
             struct Engine; impl Engine { pub fn probe() {} }\n\
             struct S; impl S { fn f(&self) { Self::g(); E::probe(); } fn g() {} }",
        )]);
        assert!(calls(&g, "S::f", "S::g"));
        assert!(calls(&g, "S::f", "Engine::probe"));
    }

    #[test]
    fn bare_fn_reference_is_an_edge() {
        let g = build(&[(
            "crates/core/src/a.rs",
            "fn work(r: usize) -> usize { r }\n\
             fn driver() { run_with(3, work); }\n\
             fn run_with(n: usize, f: fn(usize) -> usize) { f(n); }",
        )]);
        assert!(calls(&g, "driver", "work"));
        assert!(calls(&g, "driver", "run_with"));
    }

    #[test]
    fn external_types_produce_no_edges() {
        let g = build(&[(
            "crates/core/src/a.rs",
            "struct S; impl S { fn new() {} }\n\
             fn f() { let v = Vec::new(); let m = std::collections::BTreeMap::<u32, u32>::new(); }",
        )]);
        let f = id(&g, "f");
        assert!(
            g.edges[f].is_empty(),
            "Vec::new must not resolve to S::new: {:?}",
            g.edges[f]
        );
    }

    #[test]
    fn generic_qualifier_over_approximates() {
        let g = build(&[(
            "crates/core/src/a.rs",
            "struct S; impl S { fn make() {} }\n\
             fn f<T>() { T::make(); }",
        )]);
        assert!(calls(&g, "f", "S::make"));
    }

    #[test]
    fn reach_and_chain() {
        let g = build(&[(
            "crates/core/src/a.rs",
            "pub fn entry() { mid(); } fn mid() { sink(); } fn sink() {} fn island() {}",
        )]);
        let r = g.reach(&[id(&g, "entry")], |_| false);
        assert!(r.reached[id(&g, "sink")]);
        assert!(!r.reached[id(&g, "island")]);
        let chain: Vec<String> = r
            .chain(id(&g, "sink"))
            .into_iter()
            .map(|f| g.qualified(f))
            .collect();
        assert_eq!(chain, ["entry", "mid", "sink"]);
    }

    #[test]
    fn blocked_fns_cut_reachability() {
        let g = build(&[(
            "crates/core/src/a.rs",
            "pub fn entry() { boundary(); } fn boundary() { sink(); } fn sink() {}",
        )]);
        let b = id(&g, "boundary");
        let r = g.reach(&[id(&g, "entry")], |f| f == b);
        assert!(!r.reached[id(&g, "sink")]);
        assert!(!r.reached[b]);
    }

    #[test]
    fn can_reach_seed_fixed_point() {
        let g = build(&[(
            "crates/core/src/a.rs",
            "pub fn top() { mid(); } fn mid() { deep(); } fn deep() {} fn clean() {}",
        )]);
        let mut seeds = vec![false; g.fns.len()];
        seeds[id(&g, "deep")] = true;
        let can = g.can_reach_seed(&seeds);
        assert!(can[id(&g, "top")] && can[id(&g, "mid")] && can[id(&g, "deep")]);
        assert!(!can[id(&g, "clean")]);
        let chain = g.chain_to(id(&g, "top"), &seeds);
        assert_eq!(chain.len(), 3);
    }
}
