//! The compiled policy set: a policy slice plus its top-level combining
//! algorithm lowered once, at publish time, into flat tables that render a
//! decision — and its obligations and penalty — in one pass over the rules.
//!
//! * **Slots.** Every `(category, attribute)` the set references gets a
//!   dense slot. One resolver, [`CompiledPolicySet::resolve`], writes
//!   `(category, name, value)` triples into a request's `slot → value code`
//!   buffer; attributes the set never references are ignored. A
//!   [`Request`] is fed through it attribute by attribute, and so is a
//!   wire decoder's [`ResolvedBatch`], which never builds a `Request`.
//! * **Value codes.** Per slot and per type, the constants the set compares
//!   against are sorted and coded order-preservingly: constant `i` is
//!   `2i + 1` and the gap below it `2i`, so a value the set never mentions
//!   still lands between the right neighbours. Bools and absence get codes
//!   of their own. Each leaf condition is then a precomputed tri-state
//!   table over its slot's codes: a type mismatch or an absent attribute is
//!   "unknown", exactly as [`Cond::eval`] renders it.
//! * **Inner nodes.** Tri-states are `0` false, `1` unknown, `2` true: `And`
//!   is the minimum (true when empty), `Or` the maximum (false when empty),
//!   `Not` is `2 − x` — Kleene logic, which is what [`Cond::eval`] computes.
//! * **Guard index.** A rule whose condition is an `Eq`/`In` leaf, or an
//!   `And` with such a leaf child, is guarded by that leaf. A policy of
//!   eight rules or more indexes its most common guard slot by value code:
//!   a rule is left out of a code's candidate list only where its guard is
//!   definitely false there, i.e. where the rule is certainly
//!   `NotApplicable`, and only the candidates' nodes are evaluated. The
//!   nodes of smaller policies are cheaper to evaluate in one set-wide
//!   pass up front.
//! * **One pass.** Each candidate rule and each policy is decided once;
//!   obligations and the penalty are then collected from those recorded
//!   decisions under the collection semantics of [`crate::obligation`].
//!   Every caller evaluates through the same pass over value codes: a
//!   single [`Request`] with its scratch on the stack (for sets that fit),
//!   a [`ResolvedBatch`] with one heap scratch for the whole batch.

use crate::attr::{AttrRef, AttrValue, Category, Request};
use crate::model::{CombiningAlg, Cond, CondOp, Decision, Effect, Policy};
use crate::obligation::{DecisionEffects, Obligation, ObligationSpec};
use std::cmp::Ordering;
use std::iter::repeat_n;
use std::ops::Range;

const FALSE: u8 = 0;
const UNKNOWN: u8 = 1;
const TRUE: u8 = 2;

/// Rule and policy outcomes as bit sets, so a combining algorithm reads
/// what it saw from one accumulated byte. `NotApplicable` is no bit.
const PERMIT: u8 = 1;
const DENY: u8 = 2;
const INDETERMINATE: u8 = 4;
const DEFINITE: u8 = PERMIT | DENY;

/// The code of an attribute the request does not carry.
const ABSENT: u32 = 0;

/// Policies with fewer rules are not indexed: their conditions cost less
/// in the set-wide node pass than evaluated rule by rule.
const INDEX_MIN_RULES: usize = 8;

/// A guard index may hold at most this many candidate entries per rule of
/// its policy (plus a constant); past that the policy scans every rule.
const INDEX_ENTRIES_PER_RULE: usize = 8;

/// The value domain of one slot: the constants the set compares the
/// attribute against, sorted per type.
#[derive(Clone, Debug, Default)]
struct Domain {
    strs: Vec<String>,
    ints: Vec<i64>,
}

/// A length of one of the set's tables as a `u32` index.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("a compiled policy set holds fewer than 2^32 entries per table")
}

/// `2i + 1` for a constant found at `i`, `2i` for the gap below index `i`.
fn ordinal(found: Result<usize, usize>) -> u32 {
    let pos = match found {
        Ok(i) => 2 * i + 1,
        Err(i) => 2 * i,
    };
    u32::try_from(pos).expect("fewer than 2^31 constants per slot")
}

impl Domain {
    /// String codes start right after absence.
    fn str_base(&self) -> u32 {
        ABSENT + 1
    }

    fn int_base(&self) -> u32 {
        self.str_base() + 2 * self.strs.len() as u32 + 1
    }

    fn bool_base(&self) -> u32 {
        self.int_base() + 2 * self.ints.len() as u32 + 1
    }

    /// Number of codes: absence, every string and integer position, two
    /// bools.
    fn size(&self) -> u32 {
        self.bool_base() + 2
    }

    /// The code of a request value.
    fn code(&self, value: AttrRef<'_>) -> u32 {
        match value {
            AttrRef::Str(s) => {
                self.str_base() + ordinal(self.strs.binary_search_by(|c| c.as_str().cmp(s)))
            }
            AttrRef::Int(i) => self.int_base() + ordinal(self.ints.binary_search(&i)),
            AttrRef::Bool(b) => self.bool_base() + u32::from(b),
        }
    }

    /// The codes of `value`'s type, in order.
    fn type_range(&self, value: AttrRef<'_>) -> Range<u32> {
        match value {
            AttrRef::Str(_) => self.str_base()..self.int_base(),
            AttrRef::Int(_) => self.int_base()..self.bool_base(),
            AttrRef::Bool(_) => self.bool_base()..self.size(),
        }
    }
}

/// The tri-state of `op` given how the attribute's value orders against
/// the constant.
fn holds(op: CondOp, ord: Ordering) -> u8 {
    let holds = match op {
        CondOp::Eq => ord == Ordering::Equal,
        CondOp::Ne => ord != Ordering::Equal,
        CondOp::Lt => ord == Ordering::Less,
        CondOp::Le => ord != Ordering::Greater,
        CondOp::Gt => ord == Ordering::Greater,
        CondOp::Ge => ord != Ordering::Less,
    };
    if holds {
        TRUE
    } else {
        FALSE
    }
}

/// One condition node. Children of `And`/`Or` are a range of `children`.
#[derive(Clone, Copy, Debug)]
enum Node {
    /// A comparison or membership test: the tri-state for the slot's value
    /// code `c` is `tables[table + c]`.
    Leaf {
        slot: u32,
        table: u32,
    },
    And(u32, u32),
    Or(u32, u32),
    Not(u32),
}

/// A leaf that rules a rule out wherever it is definitely false.
#[derive(Clone, Copy, Debug)]
struct Guard {
    slot: u32,
    table: u32,
}

#[derive(Clone, Debug)]
struct CompiledRule {
    effect: Effect,
    /// The rule's outcome for each tri-state of its condition.
    outcomes: [u8; 3],
    /// The condition's nodes in post order (the root last); empty for an
    /// unconditional rule.
    nodes: Range<u32>,
    /// True when the rule carries obligations or a penalty.
    annotated: bool,
    obligations: Vec<ObligationSpec>,
    penalty: Option<u32>,
}

#[derive(Clone, Debug)]
struct CompiledPolicy {
    combining: CombiningAlg,
    rules: Range<u32>,
    obligations: Vec<ObligationSpec>,
    /// The indexed guard slot; `None` when every rule is a candidate.
    key: Option<u32>,
    /// Candidate lists (ranges into the set's `candidates`), one per value
    /// code of `key`, or a single list of every rule when unindexed.
    lists: Vec<Range<u32>>,
}

/// A policy set compiled for evaluation: decisions and
/// [`DecisionEffects`] identical to evaluating the source policies
/// rule by rule, at a fraction of the cost per request. Build it once per
/// published policy set; it is immutable and `Send + Sync`.
#[derive(Clone, Debug)]
pub struct CompiledPolicySet {
    combining: CombiningAlg,
    /// Per category (in [`Category::ALL`] order): attribute name → slot,
    /// sorted by name.
    names: [Vec<(String, u32)>; 4],
    domains: Vec<Domain>,
    nodes: Vec<Node>,
    children: Vec<u32>,
    tables: Vec<u8>,
    rules: Vec<CompiledRule>,
    policies: Vec<CompiledPolicy>,
    /// Rule indices, in rule order within each candidate list.
    candidates: Vec<u32>,
    /// The nodes of every unindexed policy, evaluated up front in one pass
    /// per range; an indexed policy evaluates its candidates' nodes alone.
    eager: Vec<Range<u32>>,
    /// Number of rules carrying obligations or a penalty.
    annotated_rules: usize,
}

fn category_index(category: Category) -> usize {
    match category {
        Category::Subject => 0,
        Category::Resource => 1,
        Category::Action => 2,
        Category::Environment => 3,
    }
}

fn outcome_decision(outcome: u8) -> Decision {
    match outcome {
        PERMIT => Decision::Permit,
        DENY => Decision::Deny,
        INDETERMINATE => Decision::Indeterminate,
        _ => Decision::NotApplicable,
    }
}

/// The outcomes a combining algorithm has seen, in order.
#[derive(Default)]
struct Seen {
    /// Every outcome seen.
    any: u8,
    /// The first definite outcome, if any.
    first: u8,
}

impl Seen {
    fn push(&mut self, outcome: u8) {
        self.any |= outcome;
        if self.first == 0 {
            self.first = outcome & DEFINITE;
        }
    }

    /// The combined outcome, as [`CombiningAlg::combine`] renders it.
    fn combine(&self, alg: CombiningAlg) -> u8 {
        let (wins, loses) = match alg {
            CombiningAlg::DenyOverrides => (DENY, PERMIT),
            CombiningAlg::PermitOverrides => (PERMIT, DENY),
            CombiningAlg::FirstApplicable if self.first != 0 => return self.first,
            CombiningAlg::FirstApplicable => return self.any & INDETERMINATE,
        };
        if self.any & wins != 0 {
            wins
        } else if self.any & INDETERMINATE != 0 {
            INDETERMINATE
        } else {
            self.any & loses
        }
    }
}

/// A zeroed scratch buffer of `len` elements: on the stack up to `N`, on
/// the heap beyond.
enum Scratch<T, const N: usize> {
    Inline([T; N], usize),
    Heap(Vec<T>),
}

impl<T: Copy + Default, const N: usize> Scratch<T, N> {
    fn new(len: usize) -> Scratch<T, N> {
        if len <= N {
            Scratch::Inline([T::default(); N], len)
        } else {
            Scratch::Heap(vec![T::default(); len])
        }
    }
}

impl<T, const N: usize> std::ops::Deref for Scratch<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            Scratch::Inline(buf, len) => &buf[..*len],
            Scratch::Heap(buf) => buf,
        }
    }
}

impl<T, const N: usize> std::ops::DerefMut for Scratch<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            Scratch::Inline(buf, len) => &mut buf[..*len],
            Scratch::Heap(buf) => buf,
        }
    }
}

impl CompiledPolicySet {
    /// Compiles `policies` combined under `combining`.
    pub fn new(policies: &[Policy], combining: CombiningAlg) -> CompiledPolicySet {
        let mut set = CompiledPolicySet {
            combining,
            names: Default::default(),
            domains: Vec::new(),
            nodes: Vec::new(),
            children: Vec::new(),
            tables: Vec::new(),
            rules: Vec::new(),
            policies: Vec::with_capacity(policies.len()),
            candidates: Vec::new(),
            eager: Vec::new(),
            annotated_rules: 0,
        };
        // Pass 1: slots and their constants, so every domain is complete
        // before any table is laid out over it.
        for rule in policies.iter().flat_map(|p| &p.rules) {
            if let Some(cond) = &rule.condition {
                set.collect_constants(cond);
            }
        }
        for domain in &mut set.domains {
            domain.strs.sort_unstable();
            domain.strs.dedup();
            domain.ints.sort_unstable();
            domain.ints.dedup();
        }
        // Pass 2: nodes, tables, rules, and each policy's guard index.
        for policy in policies {
            let first = offset(set.rules.len());
            let first_node = offset(set.nodes.len());
            for rule in &policy.rules {
                let first_node = offset(set.nodes.len());
                if let Some(cond) = &rule.condition {
                    set.compile_cond(cond);
                }
                let effect = match rule.effect {
                    Effect::Permit => PERMIT,
                    Effect::Deny => DENY,
                };
                set.rules.push(CompiledRule {
                    effect: rule.effect,
                    outcomes: [0, INDETERMINATE, effect],
                    nodes: first_node..offset(set.nodes.len()),
                    annotated: rule.has_annotations(),
                    obligations: rule.obligations.clone(),
                    penalty: rule.penalty,
                });
            }
            let rules = first..offset(set.rules.len());
            let (key, lists) = set.index(policy, rules.clone());
            if key.is_none() {
                let nodes = first_node..offset(set.nodes.len());
                match set.eager.last_mut() {
                    Some(last) if last.end == nodes.start => last.end = nodes.end,
                    _ => set.eager.push(nodes),
                }
            }
            set.policies.push(CompiledPolicy {
                combining: policy.combining,
                rules,
                obligations: policy.obligations.clone(),
                key,
                lists,
            });
        }
        set.annotated_rules = set.rules.iter().filter(|r| r.annotated).count();
        set
    }

    /// The slot of `(category, name)`, assigning the next one if new.
    fn slot_for(&mut self, category: Category, name: &str) -> u32 {
        let names = &mut self.names[category_index(category)];
        match names.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => names[i].1,
            Err(i) => {
                let slot = offset(self.domains.len());
                names.insert(i, (name.to_owned(), slot));
                self.domains.push(Domain::default());
                slot
            }
        }
    }

    /// The slot of `(category, name)`, if the set references it.
    fn slot(&self, category: Category, name: &str) -> Option<u32> {
        let names = &self.names[category_index(category)];
        names
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| names[i].1)
    }

    fn collect_constants(&mut self, cond: &Cond) {
        let (category, attr, values) = match cond {
            Cond::Cmp {
                category,
                attr,
                value,
                ..
            } => (*category, attr, std::slice::from_ref(value)),
            Cond::In {
                category,
                attr,
                values,
            } => (*category, attr, values.as_slice()),
            Cond::And(cs) | Cond::Or(cs) => {
                for c in cs {
                    self.collect_constants(c);
                }
                return;
            }
            Cond::Not(c) => return self.collect_constants(c),
        };
        let slot = self.slot_for(category, attr) as usize;
        let domain = &mut self.domains[slot];
        for value in values {
            match value {
                AttrValue::Str(s) => domain.strs.push(s.clone()),
                AttrValue::Int(i) => domain.ints.push(*i),
                AttrValue::Bool(_) => {}
            }
        }
    }

    /// Lowers `cond` into nodes (children before parents); returns its
    /// root.
    fn compile_cond(&mut self, cond: &Cond) -> u32 {
        let node = match cond {
            Cond::Cmp {
                category,
                attr,
                op,
                value,
            } => {
                // Order-preserving codes: below the constant's code the
                // value is less, above it greater, within its type; another
                // type, or absence, is unknown.
                let slot = self.slot(*category, attr).expect("slot assigned in pass 1");
                let domain = &self.domains[slot as usize];
                let (size, at, same_type) = (
                    domain.size(),
                    domain.code(value.borrowed()),
                    domain.type_range(value.borrowed()),
                );
                let table = offset(self.tables.len());
                self.tables
                    .extend(repeat_n(UNKNOWN, same_type.start as usize));
                let below = (at - same_type.start) as usize;
                self.tables
                    .extend(repeat_n(holds(*op, Ordering::Less), below));
                self.tables.push(holds(*op, Ordering::Equal));
                let above = (same_type.end - at - 1) as usize;
                self.tables
                    .extend(repeat_n(holds(*op, Ordering::Greater), above));
                self.tables
                    .extend(repeat_n(UNKNOWN, (size - same_type.end) as usize));
                Node::Leaf { slot, table }
            }
            Cond::In {
                category,
                attr,
                values,
            } => {
                // Any present value is in the list or not; absence is
                // unknown.
                let slot = self.slot(*category, attr).expect("slot assigned in pass 1");
                let domain = &self.domains[slot as usize];
                let table = offset(self.tables.len());
                self.tables.push(UNKNOWN);
                self.tables
                    .extend(repeat_n(FALSE, domain.size() as usize - 1));
                for v in values {
                    self.tables[(table + domain.code(v.borrowed())) as usize] = TRUE;
                }
                Node::Leaf { slot, table }
            }
            Cond::And(cs) | Cond::Or(cs) => {
                let kids: Vec<u32> = cs.iter().map(|c| self.compile_cond(c)).collect();
                let lo = offset(self.children.len());
                self.children.extend(kids);
                let hi = offset(self.children.len());
                if matches!(cond, Cond::And(_)) {
                    Node::And(lo, hi)
                } else {
                    Node::Or(lo, hi)
                }
            }
            Cond::Not(c) => Node::Not(self.compile_cond(c)),
        };
        self.nodes.push(node);
        offset(self.nodes.len()) - 1
    }

    /// Appends, tagged with `rule`, the `Eq`/`In` leaves that rule `cond`
    /// (compiled at `root`) out wherever they are definitely false: the
    /// root itself, or the root `And`'s direct children.
    fn guards_of(&self, rule: usize, cond: &Cond, root: u32, out: &mut Vec<(usize, Guard)>) {
        let mut push = |c: &Cond, n: u32| {
            if let (
                Cond::Cmp { op: CondOp::Eq, .. } | Cond::In { .. },
                Node::Leaf { slot, table },
            ) = (c, self.nodes[n as usize])
            {
                out.push((rule, Guard { slot, table }));
            }
        };
        match (cond, self.nodes[root as usize]) {
            (Cond::And(cs), Node::And(lo, _)) => {
                for (c, &n) in cs.iter().zip(&self.children[lo as usize..]) {
                    push(c, n);
                }
            }
            _ => push(cond, root),
        }
    }

    /// Builds `policy`'s guard index over its compiled `rules`: the slot
    /// most rules are guarded on, and per value code of that slot the rules
    /// not ruled out there. Falls back to one list of every rule when the
    /// policy is small, no rule is guarded, or the index would grow past
    /// its size bound.
    fn index(&mut self, policy: &Policy, rules: Range<u32>) -> (Option<u32>, Vec<Range<u32>>) {
        let all = |set: &mut CompiledPolicySet| {
            let lo = offset(set.candidates.len());
            set.candidates.extend(rules.clone());
            let every_rule = lo..offset(set.candidates.len());
            (None, std::iter::once(every_rule).collect())
        };
        if rules.len() < INDEX_MIN_RULES {
            return all(self);
        }
        let mut guards: Vec<(usize, Guard)> = Vec::new();
        for (i, (rule, r)) in policy.rules.iter().zip(rules.clone()).enumerate() {
            if let Some(cond) = &rule.condition {
                self.guards_of(i, cond, self.rules[r as usize].nodes.end - 1, &mut guards);
            }
        }
        let mut counts: Vec<(u32, usize)> = Vec::new();
        for (_, g) in &guards {
            match counts.iter_mut().find(|(s, _)| *s == g.slot) {
                Some((_, n)) => *n += 1,
                None => counts.push((g.slot, 1)),
            }
        }
        // The slot with the most guards; the lower slot breaks ties.
        let Some(&(key, _)) = counts
            .iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
        else {
            return all(self);
        };
        // One bit per rule and code, set where no guard on `key` rules the
        // rule out. A rule's first key guard sets the bits where it is not
        // false (few codes, for an equality); any further one clears.
        let size = self.domains[key as usize].size() as usize;
        let words = rules.len().div_ceil(64);
        let mut alive = vec![0u64; size * words];
        let mut first = vec![true; rules.len()];
        for (i, g) in guards.iter().filter(|(_, g)| g.slot == key) {
            let table = &self.tables[g.table as usize..g.table as usize + size];
            let (word, bit) = (i / 64, 1u64 << (i % 64));
            let rows = alive.chunks_mut(words).zip(table);
            if std::mem::replace(&mut first[*i], false) {
                rows.filter(|(_, &t)| t != FALSE)
                    .for_each(|(row, _)| row[word] |= bit);
            } else {
                rows.filter(|(_, &t)| t == FALSE)
                    .for_each(|(row, _)| row[word] &= !bit);
            }
        }
        for (i, _) in first.iter().enumerate().filter(|(_, &unguarded)| unguarded) {
            let (word, bit) = (i / 64, 1u64 << (i % 64));
            alive.chunks_mut(words).for_each(|row| row[word] |= bit);
        }
        let budget = INDEX_ENTRIES_PER_RULE * rules.len() + 64;
        let base = self.candidates.len();
        let mut lists: Vec<Range<u32>> = Vec::with_capacity(size);
        for (code, row) in alive.chunks(words).enumerate() {
            // Neighbouring codes (the gaps, the other types) often keep the
            // same rules: store such a list once.
            if code > 0 && row == &alive[(code - 1) * words..code * words] {
                lists.push(lists[code - 1].clone());
                continue;
            }
            let lo = offset(self.candidates.len());
            for (w, &word) in row.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    self.candidates
                        .push(rules.start + offset(w * 64) + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
            lists.push(lo..offset(self.candidates.len()));
            if self.candidates.len() - base > budget {
                self.candidates.truncate(base);
                return all(self);
            }
        }
        (Some(key), lists)
    }

    /// Evaluates `nodes` in post order into `vals` (indexed by node).
    fn evaluate(&self, nodes: Range<u32>, codes: &[u32], vals: &mut [u8]) {
        for n in nodes {
            vals[n as usize] = match self.nodes[n as usize] {
                Node::Leaf { slot, table } => self.tables[(table + codes[slot as usize]) as usize],
                Node::And(lo, hi) => self.children[lo as usize..hi as usize]
                    .iter()
                    .fold(TRUE, |acc, &c| acc.min(vals[c as usize])),
                Node::Or(lo, hi) => self.children[lo as usize..hi as usize]
                    .iter()
                    .fold(FALSE, |acc, &c| acc.max(vals[c as usize])),
                Node::Not(c) => TRUE - vals[c as usize],
            };
        }
    }

    /// Number of slots: the length of one request's code buffer.
    pub fn slots(&self) -> usize {
        self.domains.len()
    }

    /// The resolver: writes the value code of `value` for `(category,
    /// name)` into `codes`, one request's buffer of [`slots`] codes that
    /// starts all absent. An attribute the set never references is
    /// ignored. A later write to a slot overwrites an earlier one, so a
    /// duplicated attribute keeps its last value, as [`Request::set`] does.
    ///
    /// [`slots`]: CompiledPolicySet::slots
    pub fn resolve(&self, codes: &mut [u32], category: Category, name: &str, value: AttrRef<'_>) {
        if let Some(slot) = self.slot(category, name) {
            codes[slot as usize] = self.domains[slot as usize].code(value);
        }
    }

    /// Scratch words one pass needs beside the codes: a decision per
    /// policy, the annotated rules that fired, and one spare `fired` word
    /// (the pass writes a slot before deciding whether to keep it).
    fn pass_words(&self) -> usize {
        self.policies.len() + self.annotated_rules + 1
    }

    /// Resolves `request` into stack scratch (heap past the inline sizes)
    /// and runs the pass over its codes.
    fn run_request<R>(&self, request: &Request, finish: impl FnOnce(&Pass<'_>) -> R) -> R {
        let slots = self.slots();
        // Zeroed: every slot starts `ABSENT`.
        let mut words = Scratch::<u32, 128>::new(slots + self.pass_words());
        let mut vals = Scratch::<u8, 256>::new(self.nodes.len());
        let (codes, pass) = words.split_at_mut(slots);
        for (category, name, value) in request.iter() {
            self.resolve(codes, category, name, value.borrowed());
        }
        self.run(codes, pass, &mut vals, finish)
    }

    /// Decides every policy once over one request's value `codes`,
    /// recording one decision per policy and the annotated rules that
    /// fired into `words` (at least [`pass_words`] long) and node values
    /// into `vals` (one per node), then hands the recorded pass to
    /// `finish`. Neither scratch needs clearing between calls: the pass
    /// writes every entry before reading it.
    ///
    /// [`pass_words`]: CompiledPolicySet::pass_words
    #[inline]
    fn run<R>(
        &self,
        codes: &[u32],
        words: &mut [u32],
        vals: &mut [u8],
        finish: impl FnOnce(&Pass<'_>) -> R,
    ) -> R {
        let (decisions, fired) = words.split_at_mut(self.policies.len());
        for nodes in &self.eager {
            self.evaluate(nodes.clone(), codes, vals);
        }
        let mut n_fired = 0;
        for (p, policy) in self.policies.iter().enumerate() {
            let list = &policy.lists[policy.key.map_or(0, |k| codes[k as usize] as usize)];
            let mut seen = Seen::default();
            for &r in &self.candidates[list.start as usize..list.end as usize] {
                let rule = &self.rules[r as usize];
                if policy.key.is_some() {
                    self.evaluate(rule.nodes.clone(), codes, vals);
                }
                // The root is the rule's last node; no nodes, no condition.
                let value = if rule.nodes.is_empty() {
                    TRUE
                } else {
                    vals[rule.nodes.end as usize - 1]
                };
                let outcome = rule.outcomes[value as usize];
                seen.push(outcome);
                // Every candidate is decided, even past `FirstApplicable`'s
                // first definite rule: a later rule with the same decision
                // still contributes its obligations.
                fired[n_fired] = r;
                n_fired += usize::from(rule.annotated && outcome & DEFINITE != 0);
            }
            decisions[p] = u32::from(seen.combine(policy.combining));
        }
        let mut top = Seen::default();
        for &d in decisions.iter() {
            top.push(d as u8);
        }
        finish(&Pass {
            set: self,
            decision: outcome_decision(top.combine(self.combining)),
            decisions,
            fired: &fired[..n_fired],
        })
    }

    /// Decides `request`; identical to evaluating the source policies rule
    /// by rule under the set's combining algorithm.
    pub fn decide(&self, request: &Request) -> Decision {
        self.run_request(request, |pass| pass.decision)
    }

    /// Decides `request` and collects the obligations and penalty the
    /// decision carries (see [`crate::evaluate_policies_effects`] for the
    /// collection semantics).
    pub fn decide_effects(&self, request: &Request) -> DecisionEffects {
        self.run_request(request, |pass| pass.effects())
    }
}

/// Requests resolved to value codes against one [`CompiledPolicySet`],
/// ready to decide: a flat buffer of [`CompiledPolicySet::slots`] codes per
/// request. The batch borrows the set, so its codes can only be decided
/// against the set they were resolved for.
#[derive(Clone, Debug)]
pub struct ResolvedBatch<'s> {
    set: &'s CompiledPolicySet,
    codes: Vec<u32>,
    len: usize,
}

impl<'s> ResolvedBatch<'s> {
    /// An empty batch over `set`.
    pub fn new(set: &'s CompiledPolicySet) -> ResolvedBatch<'s> {
        ResolvedBatch {
            set,
            codes: Vec::new(),
            len: 0,
        }
    }

    /// Starts the next request, every attribute absent.
    pub fn push(&mut self) {
        self.codes.extend(repeat_n(ABSENT, self.set.slots()));
        self.len += 1;
    }

    /// Appends `request`, resolved attribute by attribute.
    pub fn push_request(&mut self, request: &Request) {
        self.push();
        for (category, name, value) in request.iter() {
            self.set(category, name, value.borrowed());
        }
    }

    /// Resolves one attribute of the newest request (see
    /// [`CompiledPolicySet::resolve`]).
    ///
    /// # Panics
    ///
    /// If no request has been started with [`ResolvedBatch::push`].
    pub fn set(&mut self, category: Category, name: &str, value: AttrRef<'_>) {
        assert!(self.len > 0, "ResolvedBatch::set before push");
        let start = self.codes.len() - self.set.slots();
        self.set
            .resolve(&mut self.codes[start..], category, name, value);
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch holds no request.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Each request's codes, in order.
    fn requests(&self) -> impl Iterator<Item = &[u32]> {
        let slots = self.set.slots();
        (0..self.len).map(move |i| &self.codes[i * slots..(i + 1) * slots])
    }

    /// The [`DecisionEffects`] for each request, in order; identical to
    /// [`CompiledPolicySet::decide_effects`] on the requests it resolved.
    /// The whole batch runs with one evaluation scratch.
    pub fn effects(&self) -> impl Iterator<Item = DecisionEffects> + '_ {
        let set = self.set;
        let mut words = vec![0u32; set.pass_words()];
        let mut vals = vec![0u8; set.nodes.len()];
        self.requests()
            .map(move |codes| set.run(codes, &mut words, &mut vals, |pass| pass.effects()))
    }
}

/// One recorded evaluation: the final decision, every policy's decision,
/// and the annotated rules that fired, in rule order.
struct Pass<'a> {
    set: &'a CompiledPolicySet,
    decision: Decision,
    decisions: &'a [u32],
    fired: &'a [u32],
}

impl Pass<'_> {
    /// Collects obligations and the penalty from the recorded decisions.
    #[inline]
    fn effects(&self) -> DecisionEffects {
        let mut effects = DecisionEffects::bare(self.decision);
        let Some(final_effect) = self.decision.effect() else {
            return effects;
        };
        let mut fired = self.fired.iter().peekable();
        for (policy, &d) in self.set.policies.iter().zip(self.decisions) {
            let contributes = outcome_decision(d as u8) == self.decision;
            if contributes {
                push_specs(&mut effects.obligations, &policy.obligations, final_effect);
            }
            while let Some(&&r) = fired.peek() {
                if !policy.rules.contains(&r) {
                    break;
                }
                fired.next();
                let rule = &self.set.rules[r as usize];
                if !contributes || rule.effect != final_effect {
                    continue;
                }
                push_specs(&mut effects.obligations, &rule.obligations, final_effect);
                if final_effect == Effect::Deny {
                    if let Some(p) = rule.penalty {
                        effects.penalty = effects.penalty.max(p);
                    }
                }
            }
        }
        effects
    }
}

/// Appends the obligations of `specs` firing on `on`, first id wins.
fn push_specs(out: &mut Vec<Obligation>, specs: &[ObligationSpec], on: Effect) {
    for spec in specs.iter().filter(|s| s.on == on) {
        if !out.iter().any(|o| o.id == spec.obligation.id) {
            out.push(spec.obligation.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PolicyRule;

    fn one_rule(cond: Cond) -> Vec<Policy> {
        vec![Policy::new(
            "p",
            vec![PolicyRule::new("r", Effect::Permit, cond)],
        )]
    }

    /// What the set must render: the source policies evaluated rule by
    /// rule.
    fn tree_walk(policies: &[Policy], alg: CombiningAlg, request: &Request) -> Decision {
        alg.combine(policies.iter().map(|p| p.evaluate(request)))
    }

    /// A value below, on, between and above the constants `b`/`d` and
    /// `2`/`4`, of every type.
    fn probes() -> Vec<AttrValue> {
        let mut out: Vec<AttrValue> = ["", "a", "b", "c", "d", "e"]
            .iter()
            .map(|&s| AttrValue::from(s))
            .collect();
        out.extend([i64::MIN, 1, 2, 3, 4, 5, i64::MAX].map(AttrValue::Int));
        out.extend([false, true].map(AttrValue::Bool));
        out
    }

    #[test]
    fn codes_preserve_order_and_place_gaps_between_constants() {
        let domain = Domain {
            strs: vec!["b".into(), "d".into()],
            ints: vec![2, 4],
        };
        let codes: Vec<u32> = probes().iter().map(|v| domain.code(v.borrowed())).collect();
        // "" and "a" share the gap below "b"; "c" sits between "b" and "d".
        assert_eq!(&codes[..6], &[1, 1, 2, 3, 4, 5]);
        assert_eq!(&codes[6..13], &[6, 6, 7, 8, 9, 10, 10]);
        assert_eq!(&codes[13..], &[11, 12]);
        assert_eq!(domain.size(), 13);
        assert!(codes.iter().all(|&c| c != ABSENT && c < domain.size()));
    }

    #[test]
    fn leaves_match_cond_eval_on_every_place_and_type() {
        let ops = [
            CondOp::Eq,
            CondOp::Ne,
            CondOp::Lt,
            CondOp::Le,
            CondOp::Gt,
            CondOp::Ge,
        ];
        let constants = [
            AttrValue::from("b"),
            AttrValue::from("d"),
            AttrValue::Int(2),
            AttrValue::Int(4),
            AttrValue::Bool(true),
        ];
        let mut conds: Vec<Cond> = ops
            .iter()
            .flat_map(|&op| {
                constants
                    .iter()
                    .map(move |c| Cond::cmp(Category::Subject, "x", op, c.clone()))
            })
            .collect();
        conds.push(Cond::In {
            category: Category::Subject,
            attr: "x".into(),
            values: vec!["d".into(), AttrValue::Int(2), AttrValue::Bool(false)],
        });
        // Every constant is in every leaf's domain, as in a real set.
        let others: Vec<Cond> = constants
            .iter()
            .map(|c| Cond::eq(Category::Subject, "x", c.clone()))
            .collect();
        // A never-applicable rule (`And` with an empty, false `Or`) that
        // puts every constant into the attribute's domain.
        let domain = Policy::new(
            "domain",
            vec![PolicyRule::new(
                "never",
                Effect::Permit,
                Cond::And(vec![Cond::Or(others), Cond::Or(Vec::new())]),
            )],
        );
        for cond in conds {
            let mut policies = one_rule(cond.clone());
            policies.push(domain.clone());
            let set = CompiledPolicySet::new(&policies, CombiningAlg::DenyOverrides);
            let mut requests: Vec<Request> = probes()
                .into_iter()
                .map(|v| Request::new().subject("x", v))
                .collect();
            requests.push(Request::new());
            for request in &requests {
                assert_eq!(
                    set.decide(request),
                    policies[0].evaluate(request),
                    "{cond} on {request}"
                );
            }
        }
    }

    #[test]
    fn inner_nodes_follow_kleene_logic() {
        let missing = Cond::eq(Category::Subject, "missing", 1i64);
        let cases = [
            (Cond::And(Vec::new()), Decision::Permit),
            (Cond::Or(Vec::new()), Decision::NotApplicable),
            (
                Cond::Not(Box::new(missing.clone())),
                Decision::Indeterminate,
            ),
            // A definite false beats an unknown in a conjunction, a
            // definite true beats it in a disjunction.
            (
                Cond::And(vec![
                    missing.clone(),
                    Cond::eq(Category::Subject, "role", "x"),
                ]),
                Decision::NotApplicable,
            ),
            (
                Cond::Or(vec![
                    missing.clone(),
                    Cond::eq(Category::Subject, "role", "dba"),
                ]),
                Decision::Permit,
            ),
            (
                Cond::Or(vec![missing, Cond::eq(Category::Subject, "role", "x")]),
                Decision::Indeterminate,
            ),
        ];
        let request = Request::new().subject("role", "dba");
        for (cond, want) in cases {
            let set = CompiledPolicySet::new(&one_rule(cond.clone()), CombiningAlg::DenyOverrides);
            assert_eq!(set.decide(&request), want, "{cond}");
        }
    }

    /// A 12-rule policy: ten `Eq` guards on one slot, one guard inside an
    /// `And`, one unguarded rule.
    fn guarded_policy(alg: CombiningAlg) -> Vec<Policy> {
        let mut rules: Vec<PolicyRule> = (0..10)
            .map(|i| {
                PolicyRule::new(
                    &format!("l{i}"),
                    if i % 2 == 0 {
                        Effect::Permit
                    } else {
                        Effect::Deny
                    },
                    Cond::eq(Category::Subject, "level", format!("l{i}")),
                )
            })
            .collect();
        rules.push(PolicyRule::new(
            "and",
            Effect::Deny,
            Cond::And(vec![
                Cond::eq(Category::Action, "id", "write"),
                Cond::eq(Category::Subject, "level", "l3"),
            ]),
        ));
        rules.push(PolicyRule::new(
            "ne",
            Effect::Permit,
            Cond::cmp(Category::Subject, "level", CondOp::Ne, "l9"),
        ));
        vec![Policy::new("leveled", rules).with_combining(alg)]
    }

    #[test]
    fn guard_index_keeps_every_rule_that_is_not_definitely_false() {
        for alg in [
            CombiningAlg::DenyOverrides,
            CombiningAlg::PermitOverrides,
            CombiningAlg::FirstApplicable,
        ] {
            let policies = guarded_policy(alg);
            let set = CompiledPolicySet::new(&policies, alg);
            let level = set.slot(Category::Subject, "level");
            assert_eq!(set.policies[0].key, level);
            let levels = (0..12).map(|i| AttrValue::from(format!("l{i}"))).chain([
                AttrValue::Int(3),
                AttrValue::Bool(true),
                AttrValue::from(""),
            ]);
            for value in levels {
                for action in [None, Some("write"), Some("read")] {
                    let mut request = Request::new().subject("level", value.clone());
                    if let Some(a) = action {
                        request = request.action("id", a);
                    }
                    assert_eq!(set.decide(&request), tree_walk(&policies, alg, &request));
                }
            }
            let absent = Request::new().action("id", "write");
            assert_eq!(set.decide(&absent), tree_walk(&policies, alg, &absent));
            // On a constant's code only its rule, the `And` rule guarded by
            // that constant, and the unguarded rule survive; a gap keeps
            // only the unguarded rule. Absence and other types are unknown,
            // never false: every rule stays.
            let domain = &set.domains[level.unwrap() as usize];
            let candidates = |code: u32| {
                let list = &set.policies[0].lists[code as usize];
                set.candidates[list.start as usize..list.end as usize].to_vec()
            };
            assert_eq!(candidates(domain.code(AttrRef::Str("l3"))), [3, 10, 11]);
            assert_eq!(candidates(domain.code(AttrRef::Str("l30"))), [11]);
            let every_rule: Vec<u32> = (0..12).collect();
            assert_eq!(candidates(ABSENT), every_rule);
            assert_eq!(candidates(domain.code(AttrRef::Int(3))), every_rule);
            assert_eq!(candidates(domain.code(AttrRef::Bool(true))), every_rule);
        }
    }

    #[test]
    fn an_oversized_index_falls_back_to_scanning_every_rule() {
        // Twenty string and twenty integer `Eq` guards on one attribute:
        // every integer code keeps all twenty string rules (a type
        // mismatch is unknown, not false), past the index's size bound.
        let rules: Vec<PolicyRule> = (0..20)
            .flat_map(|i| {
                [
                    PolicyRule::new(
                        &format!("s{i}"),
                        Effect::Permit,
                        Cond::eq(Category::Subject, "x", format!("v{i}")),
                    ),
                    PolicyRule::new(
                        &format!("i{i}"),
                        Effect::Deny,
                        Cond::eq(Category::Subject, "x", i as i64),
                    ),
                ]
            })
            .collect();
        let policies = vec![Policy::new("mixed", rules)];
        let set = CompiledPolicySet::new(&policies, CombiningAlg::DenyOverrides);
        assert_eq!(set.policies[0].key, None);
        for value in [AttrValue::from("v7"), AttrValue::Int(7), AttrValue::Int(99)] {
            let request = Request::new().subject("x", value);
            assert_eq!(
                set.decide(&request),
                tree_walk(&policies, CombiningAlg::DenyOverrides, &request)
            );
        }
    }

    #[test]
    fn first_applicable_still_collects_from_later_contributing_rules() {
        let audit = |id: &str| Obligation::new(id, "audit-log", 5);
        let policies = vec![Policy::new(
            "p",
            vec![
                PolicyRule::unconditional("first", Effect::Permit)
                    .with_obligation(Effect::Permit, audit("a")),
                PolicyRule::unconditional("deny", Effect::Deny)
                    .with_obligation(Effect::Deny, audit("d"))
                    .with_penalty(3),
                PolicyRule::unconditional("second", Effect::Permit)
                    .with_obligation(Effect::Permit, audit("b")),
            ],
        )
        .with_combining(CombiningAlg::FirstApplicable)];
        let set = CompiledPolicySet::new(&policies, CombiningAlg::FirstApplicable);
        let fx = set.decide_effects(&Request::new());
        assert_eq!(fx.decision, Decision::Permit);
        assert_eq!(fx.obligations, vec![audit("a"), audit("b")]);
        assert_eq!(fx.penalty, 0);
    }

    #[test]
    fn resolved_batches_decide_like_requests() {
        for alg in [CombiningAlg::DenyOverrides, CombiningAlg::FirstApplicable] {
            let policies = guarded_policy(alg);
            let set = CompiledPolicySet::new(&policies, alg);
            let mut batch = ResolvedBatch::new(&set);
            let mut requests = Vec::new();
            for (i, level) in ["l3", "l9", "l30"].into_iter().enumerate() {
                // A decoy first: the later write to the slot wins, as in
                // `Request::set`. Unreferenced attributes are ignored.
                batch.push();
                batch.set(Category::Subject, "level", AttrRef::Int(i as i64));
                batch.set(Category::Subject, "level", AttrRef::Str(level));
                batch.set(Category::Subject, "unreferenced", AttrRef::Bool(true));
                batch.set(Category::Action, "id", AttrRef::Str("write"));
                requests.push(Request::new().subject("level", level).action("id", "write"));
            }
            batch.push_request(&Request::new());
            requests.push(Request::new());
            assert_eq!(batch.len(), requests.len());
            let effects: Vec<DecisionEffects> = batch.effects().collect();
            for (request, fx) in requests.iter().zip(&effects) {
                assert_eq!(*fx, set.decide_effects(request), "{request}");
                assert_eq!(fx.decision, tree_walk(&policies, alg, request), "{request}");
            }
        }
        // A set with no slots still counts its requests.
        let empty = CompiledPolicySet::new(&[], CombiningAlg::DenyOverrides);
        let mut batch = ResolvedBatch::new(&empty);
        assert!(batch.is_empty());
        batch.push();
        batch.set(Category::Subject, "role", AttrRef::Str("dba"));
        batch.push();
        assert_eq!(
            batch.effects().collect::<Vec<_>>(),
            vec![DecisionEffects::bare(Decision::NotApplicable); 2]
        );
    }

    #[test]
    fn an_empty_set_is_not_applicable() {
        let set = CompiledPolicySet::new(&[], CombiningAlg::DenyOverrides);
        let fx = set.decide_effects(&Request::new().subject("role", "dba"));
        assert_eq!(fx, DecisionEffects::bare(Decision::NotApplicable));
    }
}
