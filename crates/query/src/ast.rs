//! The query AST.

use propeller_types::{AttrName, Result, Timestamp, Value};
use serde::{Deserialize, Serialize};

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CompareOp {
    /// Evaluates `lhs OP rhs`.
    pub fn eval(self, lhs: &Value, rhs: &Value) -> bool {
        self.holds(lhs.cmp(rhs))
    }

    /// Evaluates `lhs OP rhs` for a string lhs (a keyword) without
    /// allocating a temporary [`Value::Str`]. Consistent with [`Value`]'s
    /// cross-kind order, where `Str` sorts above every other kind.
    pub fn eval_str(self, lhs: &str, rhs: &Value) -> bool {
        let ord = match rhs {
            Value::Str(s) => lhs.cmp(s.as_str()),
            _ => std::cmp::Ordering::Greater,
        };
        self.holds(ord)
    }

    /// Whether the operator holds for a `lhs.cmp(rhs)` ordering.
    #[inline]
    fn holds(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CompareOp::Eq => ord == Equal,
            CompareOp::Ne => ord != Equal,
            CompareOp::Lt => ord == Less,
            CompareOp::Le => ord != Greater,
            CompareOp::Gt => ord == Greater,
            CompareOp::Ge => ord != Less,
        }
    }

    /// The operator with sides swapped (`a < b` ⇔ `b > a`), used when the
    /// parser rewrites relative-age comparisons onto absolute timestamps.
    pub fn flipped(self) -> CompareOp {
        match self {
            CompareOp::Lt => CompareOp::Gt,
            CompareOp::Le => CompareOp::Ge,
            CompareOp::Gt => CompareOp::Lt,
            CompareOp::Ge => CompareOp::Le,
            other => other,
        }
    }
}

impl std::fmt::Display for CompareOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "!=",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// How a [`Predicate::Contains`] combines its terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ContainsMode {
    /// Every term must appear somewhere in the record's text (conjunctive).
    All,
    /// At least one term must appear (disjunctive).
    Any,
    /// The terms must appear adjacent and in order within one text field.
    Phrase,
}

/// A search predicate over file records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Predicate {
    /// `attr OP value` — any of the record's values for `attr` may match.
    Compare {
        /// The attribute compared.
        attr: AttrName,
        /// The operator.
        op: CompareOp,
        /// The literal operand.
        value: Value,
    },
    /// `keyword:word` — the record carries this keyword.
    Keyword(String),
    /// `contains:"…"` / `contains-any:"…"` / `phrase:"…"` — full-text
    /// match over the record's tokenized text fields (keywords and
    /// string-valued custom attributes). Terms are already tokenized
    /// (lowercase alphanumeric runs).
    Contains {
        /// The tokenized query terms, in query order.
        terms: Vec<String>,
        /// How the terms combine.
        mode: ContainsMode,
    },
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
    /// Matches every record (`*`).
    True,
}

impl Predicate {
    /// Convenience constructor for a comparison.
    pub fn cmp(attr: AttrName, op: CompareOp, value: impl Into<Value>) -> Self {
        Predicate::Compare { attr, op, value: value.into() }
    }

    /// Convenience constructor for `a & b`.
    pub fn and(preds: Vec<Predicate>) -> Self {
        match preds.len() {
            0 => Predicate::True,
            1 => preds.into_iter().next().expect("len checked"),
            _ => Predicate::And(preds),
        }
    }

    /// Convenience constructor for a full-text containment term.
    pub fn contains<T: Into<String>>(terms: Vec<T>, mode: ContainsMode) -> Self {
        Predicate::Contains { terms: terms.into_iter().map(Into::into).collect(), mode }
    }

    /// Flattens nested conjunctions into a conjunct list; any non-`And`
    /// predicate is a single conjunct.
    pub fn conjuncts(&self) -> Vec<&Predicate> {
        match self {
            Predicate::And(ps) => ps.iter().flat_map(|p| p.conjuncts()).collect(),
            other => vec![other],
        }
    }

    /// [`Iterator::all`] over [`Predicate::conjuncts`] without building the
    /// `Vec`: the per-candidate form of the same flattening.
    pub(crate) fn all_conjuncts<'a>(&'a self, f: &mut impl FnMut(&'a Predicate) -> bool) -> bool {
        match self {
            Predicate::And(ps) => ps.iter().all(|p| p.all_conjuncts(&mut *f)),
            other => f(other),
        }
    }

    /// Whether any [`Predicate::Contains`] appears anywhere in the tree —
    /// the precondition for relevance-ranked results (there is nothing to
    /// score otherwise).
    pub fn mentions_contains(&self) -> bool {
        match self {
            Predicate::Contains { .. } => true,
            Predicate::And(ps) | Predicate::Or(ps) => ps.iter().any(Predicate::mentions_contains),
            Predicate::Not(p) => p.mentions_contains(),
            Predicate::Compare { .. } | Predicate::Keyword(_) | Predicate::True => false,
        }
    }
}

impl std::fmt::Display for Predicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Predicate::Compare { attr, op, value } => write!(f, "{attr}{op}{value}"),
            Predicate::Keyword(w) => write!(f, "keyword:{w}"),
            Predicate::Contains { terms, mode } => {
                let label = match mode {
                    ContainsMode::All => "contains",
                    ContainsMode::Any => "contains-any",
                    ContainsMode::Phrase => "phrase",
                };
                write!(f, "{label}:\"{}\"", terms.join(" "))
            }
            Predicate::And(ps) => {
                let parts: Vec<String> = ps.iter().map(|p| p.to_string()).collect();
                write!(f, "({})", parts.join(" & "))
            }
            Predicate::Or(ps) => {
                let parts: Vec<String> = ps.iter().map(|p| p.to_string()).collect();
                write!(f, "({})", parts.join(" | "))
            }
            Predicate::Not(p) => write!(f, "!{p}"),
            Predicate::True => f.write_str("*"),
        }
    }
}

/// A parsed query: a predicate plus an optional namespace scope from the
/// query-directory syntax (`/foo/bar/?size>1m`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// The predicate to evaluate.
    pub predicate: Predicate,
    /// Path-prefix scope, when the query came through the namespace.
    pub scope: Option<String>,
}

impl Query {
    /// Parses query text (see the `parser` module source for the grammar). Relative
    /// time literals are resolved against `now`.
    ///
    /// # Errors
    ///
    /// Returns [`propeller_types::Error::InvalidQuery`] on syntax errors.
    ///
    /// # Examples
    ///
    /// ```
    /// use propeller_query::Query;
    /// use propeller_types::Timestamp;
    ///
    /// let q = Query::parse("size>1g & keyword:firefox", Timestamp::from_secs(0)).unwrap();
    /// assert_eq!(q.predicate.conjuncts().len(), 2);
    /// ```
    pub fn parse(text: &str, now: Timestamp) -> Result<Query> {
        crate::parser::parse_query(text, now)
    }

    /// Parses the dynamic query-directory form `/path/?predicate`.
    ///
    /// # Errors
    ///
    /// Returns [`propeller_types::Error::InvalidQuery`] on syntax errors.
    ///
    /// # Examples
    ///
    /// ```
    /// use propeller_query::Query;
    /// use propeller_types::Timestamp;
    ///
    /// let q = Query::parse_dir("/data/proteins/?size>1m", Timestamp::from_secs(0)).unwrap();
    /// assert_eq!(q.scope.as_deref(), Some("/data/proteins/"));
    /// ```
    pub fn parse_dir(path: &str, now: Timestamp) -> Result<Query> {
        crate::parser::parse_query_dir(path, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_op_eval() {
        let a = Value::U64(5);
        let b = Value::U64(9);
        assert!(CompareOp::Lt.eval(&a, &b));
        assert!(CompareOp::Le.eval(&a, &a));
        assert!(CompareOp::Gt.eval(&b, &a));
        assert!(CompareOp::Ge.eval(&b, &b));
        assert!(CompareOp::Eq.eval(&a, &a));
        assert!(CompareOp::Ne.eval(&a, &b));
    }

    #[test]
    fn eval_str_agrees_with_value_eval() {
        let rhs_values = [
            Value::from("abc"),
            Value::from("abd"),
            Value::from(""),
            Value::U64(1),
            Value::F64(2.0),
        ];
        for lhs in ["abc", "abd", "zzz", ""] {
            for rhs in &rhs_values {
                for op in [
                    CompareOp::Eq,
                    CompareOp::Ne,
                    CompareOp::Lt,
                    CompareOp::Le,
                    CompareOp::Gt,
                    CompareOp::Ge,
                ] {
                    assert_eq!(
                        op.eval_str(lhs, rhs),
                        op.eval(&Value::from(lhs), rhs),
                        "{lhs:?} {op} {rhs:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn flipped_is_involution_for_inequalities() {
        for op in [CompareOp::Lt, CompareOp::Le, CompareOp::Gt, CompareOp::Ge] {
            assert_eq!(op.flipped().flipped(), op);
        }
        assert_eq!(CompareOp::Eq.flipped(), CompareOp::Eq);
    }

    #[test]
    fn and_constructor_simplifies() {
        assert_eq!(Predicate::and(vec![]), Predicate::True);
        let single = Predicate::Keyword("x".into());
        assert_eq!(Predicate::and(vec![single.clone()]), single);
    }

    #[test]
    fn conjuncts_flatten_nesting() {
        let p = Predicate::And(vec![
            Predicate::Keyword("a".into()),
            Predicate::And(vec![Predicate::Keyword("b".into()), Predicate::Keyword("c".into())]),
        ]);
        assert_eq!(p.conjuncts().len(), 3);
    }

    #[test]
    fn display_round_trips_visually() {
        let p = Predicate::cmp(AttrName::Size, CompareOp::Gt, 16u64 << 20);
        assert_eq!(p.to_string(), "size>16777216");
        let c = Predicate::contains(vec!["quarterly", "report"], ContainsMode::Phrase);
        assert_eq!(c.to_string(), "phrase:\"quarterly report\"");
    }

    #[test]
    fn mentions_contains_walks_the_tree() {
        let c = Predicate::contains(vec!["x"], ContainsMode::All);
        assert!(c.mentions_contains());
        assert!(Predicate::Not(Box::new(c.clone())).mentions_contains());
        assert!(Predicate::Or(vec![Predicate::True, c]).mentions_contains());
        assert!(!Predicate::Keyword("x".into()).mentions_contains());
        assert!(!Predicate::True.mentions_contains());
    }
}
