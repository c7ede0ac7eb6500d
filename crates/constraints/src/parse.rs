//! Recursive-descent parser for the constraint surface syntax.
//!
//! Grammar (precedence climbing, loosest first):
//!
//! ```text
//! expr    := or
//! or      := and (OR and)*
//! and     := not (AND not)*
//! not     := NOT not | cmp
//! cmp     := add (( = | != | < | <= | > | >= ) add)?
//!          | add IS [NOT] NULL
//! add     := mul (( + | - ) mul)*
//! mul     := unary (( * | / | % ) unary)*
//! unary   := - unary | primary          (- integer folds to one literal)
//! primary := integer | 'string' | TRUE | FALSE | NULL
//!          | $ident                      (update field)
//!          | ident . ident               (scanned column)
//!          | AGG ( ident [. ident] [WHERE expr] [WITHIN integer OF ident . ident] )
//!          | EXISTS ( ident [WHERE expr] )
//!          | GAGG ( ident [. ident] BY ident . ident [WHERE expr] [WITHIN ...] )
//!          | ( expr )
//!
//! AGG  := COUNT | SUM | MIN | MAX | AVG
//! GAGG := MAXSUM | MINSUM | MAXCOUNT | MINCOUNT   (grouped aggregates)
//! ```

use crate::ast::{AggFunc, BinOp, Expr, GroupReduce, TimeWindow};
use crate::{ConstraintError, Result};
use prever_storage::Value;

/// Parses constraint source text into an expression.
pub fn parse(src: &str) -> Result<Expr> {
    let mut p = Parser { src: src.as_bytes(), pos: 0 };
    let expr = p.parse_or()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.error("unexpected trailing input"));
    }
    Ok(expr)
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, msg: &str) -> ConstraintError {
        ConstraintError::Parse { at: self.pos, msg: msg.to_string() }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    /// Consumes `tok` if it appears next (case-insensitive for words;
    /// word tokens must not run into identifier characters).
    fn eat(&mut self, tok: &str) -> bool {
        self.skip_ws();
        let bytes = tok.as_bytes();
        if self.pos + bytes.len() > self.src.len() {
            return false;
        }
        let slice = &self.src[self.pos..self.pos + bytes.len()];
        let matches = slice.eq_ignore_ascii_case(bytes);
        if !matches {
            return false;
        }
        if tok.chars().next().is_some_and(|c| c.is_ascii_alphabetic()) {
            // Word token: must end at a word boundary.
            if let Some(&next) = self.src.get(self.pos + bytes.len()) {
                if next.is_ascii_alphanumeric() || next == b'_' {
                    return false;
                }
            }
        }
        self.pos += bytes.len();
        true
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_and()?;
        while self.eat("OR") {
            let rhs = self.parse_and()?;
            lhs = Expr::bin(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_not()?;
        while self.eat("AND") {
            let rhs = self.parse_not()?;
            lhs = Expr::bin(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.eat("NOT") {
            Ok(Expr::Not(Box::new(self.parse_not()?)))
        } else {
            self.parse_cmp()
        }
    }

    fn parse_cmp(&mut self) -> Result<Expr> {
        let lhs = self.parse_add()?;
        if self.eat("IS") {
            let negated = self.eat("NOT");
            if !self.eat("NULL") {
                return Err(self.error("expected NULL after IS"));
            }
            return Ok(Expr::IsNull { expr: Box::new(lhs), negated });
        }
        let op = if self.eat("!=") {
            BinOp::Ne
        } else if self.eat("<=") {
            BinOp::Le
        } else if self.eat(">=") {
            BinOp::Ge
        } else if self.eat("=") {
            BinOp::Eq
        } else if self.eat("<") {
            BinOp::Lt
        } else if self.eat(">") {
            BinOp::Gt
        } else {
            return Ok(lhs);
        };
        let rhs = self.parse_add()?;
        Ok(Expr::bin(op, lhs, rhs))
    }

    fn parse_add(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_mul()?;
        loop {
            if self.eat("+") {
                lhs = Expr::bin(BinOp::Add, lhs, self.parse_mul()?);
            } else if self.eat("-") {
                lhs = Expr::bin(BinOp::Sub, lhs, self.parse_mul()?);
            } else {
                return Ok(lhs);
            }
        }
    }

    fn parse_mul(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_unary()?;
        loop {
            if self.eat("*") {
                lhs = Expr::bin(BinOp::Mul, lhs, self.parse_unary()?);
            } else if self.eat("/") {
                lhs = Expr::bin(BinOp::Div, lhs, self.parse_unary()?);
            } else if self.eat("%") {
                lhs = Expr::bin(BinOp::Mod, lhs, self.parse_unary()?);
            } else {
                return Ok(lhs);
            }
        }
    }

    /// `-` before an integer literal folds into the literal, so `-1` is a
    /// value an index can be probed with, not a negation to evaluate. It
    /// evaluates the same either way; a negation of anything else stays a
    /// negation, and `-9223372036854775808` stays an overflow, its digits
    /// being parsed before the sign.
    fn parse_unary(&mut self) -> Result<Expr> {
        if !self.eat("-") {
            return self.parse_primary();
        }
        Ok(match self.parse_unary()? {
            Expr::Literal(Value::Int(n)) => Expr::int(-n),
            e => Expr::Neg(Box::new(e)),
        })
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        let c = self.peek().ok_or_else(|| self.error("unexpected end of input"))?;
        match c {
            b'(' => {
                self.pos += 1;
                let e = self.parse_or()?;
                if !self.eat(")") {
                    return Err(self.error("expected )"));
                }
                Ok(e)
            }
            b'$' => {
                self.pos += 1;
                let name = self.parse_ident()?;
                Ok(Expr::Field(name))
            }
            b'\'' => {
                self.pos += 1;
                let start = self.pos;
                while self.pos < self.src.len() && self.src[self.pos] != b'\'' {
                    self.pos += 1;
                }
                if self.pos == self.src.len() {
                    return Err(self.error("unterminated string literal"));
                }
                let s = std::str::from_utf8(&self.src[start..self.pos])
                    .map_err(|_| self.error("invalid utf8 in string literal"))?
                    .to_string();
                self.pos += 1;
                Ok(Expr::Literal(Value::Str(s)))
            }
            b'0'..=b'9' => {
                let start = self.pos;
                while self.pos < self.src.len() && self.src[self.pos].is_ascii_digit() {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.src[start..self.pos]).expect("digits");
                let v: i64 = text.parse().map_err(|_| self.error("integer literal overflow"))?;
                Ok(Expr::Literal(Value::Int(v)))
            }
            _ if c.is_ascii_alphabetic() || c == b'_' => self.parse_word(),
            _ => Err(self.error("unexpected character")),
        }
    }

    fn parse_word(&mut self) -> Result<Expr> {
        // Keyword literals first.
        if self.eat("TRUE") {
            return Ok(Expr::Literal(Value::Bool(true)));
        }
        if self.eat("FALSE") {
            return Ok(Expr::Literal(Value::Bool(false)));
        }
        if self.eat("NULL") {
            return Ok(Expr::Literal(Value::Null));
        }
        // Grouped aggregates first (their names prefix the plain ones).
        for (kw, func, reduce) in [
            ("MAXSUM", AggFunc::Sum, GroupReduce::Max),
            ("MINSUM", AggFunc::Sum, GroupReduce::Min),
            ("MAXCOUNT", AggFunc::Count, GroupReduce::Max),
            ("MINCOUNT", AggFunc::Count, GroupReduce::Min),
        ] {
            let save = self.pos;
            if self.eat(kw) {
                if self.peek() == Some(b'(') {
                    return self.parse_grouped_aggregate(func, reduce);
                }
                self.pos = save;
            }
        }
        {
            let save = self.pos;
            if self.eat("EXISTS") {
                if self.peek() == Some(b'(') {
                    return self.parse_exists();
                }
                self.pos = save;
            }
        }
        for (kw, func) in [
            ("COUNT", AggFunc::Count),
            ("SUM", AggFunc::Sum),
            ("MIN", AggFunc::Min),
            ("MAX", AggFunc::Max),
            ("AVG", AggFunc::Avg),
        ] {
            let save = self.pos;
            if self.eat(kw) {
                if self.peek() == Some(b'(') {
                    return self.parse_aggregate(func);
                }
                self.pos = save;
            }
        }
        // table.column reference.
        let table = self.parse_ident()?;
        if !self.eat(".") {
            return Err(self.error("expected . after identifier (column references are table.column)"));
        }
        let column = self.parse_ident()?;
        Ok(Expr::Column { table, column })
    }

    fn parse_aggregate(&mut self, func: AggFunc) -> Result<Expr> {
        if !self.eat("(") {
            return Err(self.error("expected ( after aggregate"));
        }
        let table = self.parse_ident()?;
        let column = if self.eat(".") { Some(self.parse_ident()?) } else { None };
        if column.is_none() && func != AggFunc::Count {
            return Err(self.error("only COUNT may omit the column"));
        }
        let filter = if self.eat("WHERE") {
            Some(Box::new(self.parse_or()?))
        } else {
            None
        };
        let window = self.parse_window_clause(&table)?;
        if !self.eat(")") {
            return Err(self.error("expected ) to close aggregate"));
        }
        Ok(Expr::Aggregate { func, table, column, filter, window })
    }

    fn parse_exists(&mut self) -> Result<Expr> {
        if !self.eat("(") {
            return Err(self.error("expected ( after EXISTS"));
        }
        let table = self.parse_ident()?;
        let filter = if self.eat("WHERE") {
            Some(Box::new(self.parse_or()?))
        } else {
            None
        };
        if !self.eat(")") {
            return Err(self.error("expected ) to close EXISTS"));
        }
        Ok(Expr::Exists { table, filter })
    }

    fn parse_grouped_aggregate(&mut self, func: AggFunc, reduce: GroupReduce) -> Result<Expr> {
        if !self.eat("(") {
            return Err(self.error("expected ( after grouped aggregate"));
        }
        let table = self.parse_ident()?;
        let column = if self.eat(".") { Some(self.parse_ident()?) } else { None };
        if column.is_none() && func != AggFunc::Count {
            return Err(self.error("only MAXCOUNT/MINCOUNT may omit the column"));
        }
        if !self.eat("BY") {
            return Err(self.error("expected BY in grouped aggregate"));
        }
        let btable = self.parse_ident()?;
        if btable != table {
            return Err(self.error("BY column must belong to the aggregated table"));
        }
        if !self.eat(".") {
            return Err(self.error("expected . in BY column"));
        }
        let group_by = self.parse_ident()?;
        let filter = if self.eat("WHERE") {
            Some(Box::new(self.parse_or()?))
        } else {
            None
        };
        let window = self.parse_window_clause(&table)?;
        if !self.eat(")") {
            return Err(self.error("expected ) to close grouped aggregate"));
        }
        Ok(Expr::GroupedAggregate { func, table, column, group_by, filter, window, reduce })
    }

    /// Parses an optional `WITHIN n OF table.column` clause.
    fn parse_window_clause(&mut self, table: &str) -> Result<Option<TimeWindow>> {
        if !self.eat("WITHIN") {
            return Ok(None);
        }
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.error("expected window duration"));
        }
        let duration: u64 = std::str::from_utf8(&self.src[start..self.pos])
            .expect("digits")
            .parse()
            .map_err(|_| self.error("window duration overflow"))?;
        if !self.eat("OF") {
            return Err(self.error("expected OF after window duration"));
        }
        let wtable = self.parse_ident()?;
        if wtable != table {
            return Err(self.error("window column must belong to the aggregated table"));
        }
        if !self.eat(".") {
            return Err(self.error("expected . in window column"));
        }
        let wcolumn = self.parse_ident()?;
        Ok(Some(TimeWindow { column: wcolumn, duration }))
    }

    fn parse_ident(&mut self) -> Result<String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.src.len()
            && (self.src[self.pos].is_ascii_alphanumeric() || self.src[self.pos] == b'_')
        {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.error("expected identifier"));
        }
        Ok(std::str::from_utf8(&self.src[start..self.pos])
            .expect("ascii ident")
            .to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flsa_regulation() {
        let e = parse(
            "SUM(tasks.hours WHERE tasks.worker = $worker WITHIN 604800 OF tasks.ts) + $hours <= 40",
        )
        .unwrap();
        match &e {
            Expr::Binary { op: BinOp::Le, lhs, .. } => match lhs.as_ref() {
                Expr::Binary { op: BinOp::Add, lhs, .. } => match lhs.as_ref() {
                    Expr::Aggregate { func: AggFunc::Sum, table, window, .. } => {
                        assert_eq!(table, "tasks");
                        assert_eq!(window.as_ref().unwrap().duration, 604_800);
                    }
                    other => panic!("unexpected: {other:?}"),
                },
                other => panic!("unexpected: {other:?}"),
            },
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn precedence() {
        // 1 + 2 * 3 = 7, not 9.
        let e = parse("1 + 2 * 3 = 7").unwrap();
        assert_eq!(
            e.to_string(),
            "((1 + (2 * 3)) = 7)"
        );
        // AND binds tighter than OR.
        let e = parse("TRUE OR FALSE AND FALSE").unwrap();
        assert_eq!(e.to_string(), "(true OR (false AND false))");
    }

    #[test]
    fn parses_count_without_column() {
        let e = parse("COUNT(attendees) < 500").unwrap();
        assert!(matches!(
            e,
            Expr::Binary { op: BinOp::Lt, .. }
        ));
        assert!(parse("SUM(attendees) < 500").is_err(), "SUM needs a column");
    }

    #[test]
    fn parses_literals() {
        assert_eq!(parse("NULL").unwrap(), Expr::Literal(Value::Null));
        assert_eq!(parse("TRUE").unwrap(), Expr::Literal(Value::Bool(true)));
        assert_eq!(parse("'abc'").unwrap(), Expr::Literal(Value::Str("abc".into())));
        assert_eq!(parse("42").unwrap(), Expr::Literal(Value::Int(42)));
    }

    #[test]
    fn a_negated_integer_literal_is_one_literal() {
        assert_eq!(parse("-42").unwrap(), Expr::int(-42));
        assert_eq!(parse("- 42").unwrap(), Expr::int(-42));
        assert_eq!(parse("--42").unwrap(), Expr::int(42));
        assert_eq!(parse("-9223372036854775807").unwrap(), Expr::int(-i64::MAX));
        assert_eq!(parse("1 - -1").unwrap(), Expr::bin(BinOp::Sub, Expr::int(1), Expr::int(-1)));
        assert_eq!(parse("-2 * 3").unwrap(), Expr::bin(BinOp::Mul, Expr::int(-2), Expr::int(3)));
        // The magnitude is parsed first, so i64::MIN has no literal.
        assert!(parse("-9223372036854775808").is_err());
        // Anything but an integer literal stays a negation.
        let neg = |e| Expr::Neg(Box::new(e));
        assert_eq!(parse("-$hours").unwrap(), neg(Expr::field("hours")));
        assert_eq!(parse("-TRUE").unwrap(), neg(Expr::Literal(Value::Bool(true))));
        assert_eq!(parse("-NULL").unwrap(), neg(Expr::Literal(Value::Null)));
        assert_eq!(parse("-'x'").unwrap(), neg(Expr::Literal(Value::Str("x".into()))));
        assert_eq!(
            parse("-(1 + 2)").unwrap(),
            neg(Expr::bin(BinOp::Add, Expr::int(1), Expr::int(2)))
        );
        // Display writes the folded literal back as `-42`, which reparses.
        let e = parse("t.c = -42").unwrap();
        assert_eq!(parse(&e.to_string()).unwrap(), e);
    }

    #[test]
    fn parses_is_null() {
        let e = parse("$note IS NULL").unwrap();
        assert_eq!(e, Expr::IsNull { expr: Box::new(Expr::field("note")), negated: false });
        let e = parse("$note IS NOT NULL").unwrap();
        assert_eq!(e, Expr::IsNull { expr: Box::new(Expr::field("note")), negated: true });
    }

    #[test]
    fn keywords_are_case_insensitive_and_word_bounded() {
        assert!(parse("not TRUE").is_ok());
        assert!(parse("NOTX.y = 1").is_ok(), "NOTX is an identifier, not NOT");
        assert!(parse("sum(t.c) > 0").is_ok());
    }

    #[test]
    fn error_positions() {
        match parse("1 + ") {
            Err(ConstraintError::Parse { at, .. }) => assert_eq!(at, 4),
            other => panic!("unexpected: {other:?}"),
        }
        assert!(parse("(1 + 2").is_err());
        assert!(parse("'unterminated").is_err());
        assert!(parse("1 + 2 extra").is_err());
        assert!(parse("SUM(t.c WITHIN 10 OF other.ts)").is_err());
        assert!(parse("bare_ident").is_err());
    }

    #[test]
    fn parses_exists_and_grouped_aggregates() {
        let e = parse("EXISTS(certs WHERE certs.worker = $worker)").unwrap();
        assert!(matches!(e, Expr::Exists { .. }));
        let e = parse("EXISTS(certs)").unwrap();
        assert_eq!(e, Expr::Exists { table: "certs".into(), filter: None });

        let e = parse("MAXSUM(tasks.hours BY tasks.worker WITHIN 10 OF tasks.ts) <= 40").unwrap();
        assert_eq!(
            e.to_string(),
            "(MAXSUM(tasks.hours BY tasks.worker WITHIN 10 OF tasks.ts) <= 40)"
        );
        let e = parse("MINCOUNT(tasks BY tasks.worker)").unwrap();
        assert!(matches!(
            e,
            Expr::GroupedAggregate { func: AggFunc::Count, reduce: GroupReduce::Min, .. }
        ));
        // Errors.
        assert!(parse("MAXSUM(tasks.hours)").is_err(), "BY is mandatory");
        assert!(parse("MAXSUM(tasks BY tasks.worker)").is_err(), "SUM needs a column");
        assert!(parse("MAXSUM(tasks.hours BY other.worker)").is_err(), "BY table must match");
    }

    #[test]
    fn grouped_display_roundtrips() {
        for src in [
            "MAXSUM(t.v BY t.g)",
            "MINSUM(t.v BY t.g WHERE t.v > 0)",
            "EXISTS(t WHERE t.v = $x)",
            "MAXCOUNT(t BY t.g WITHIN 5 OF t.ts)",
        ] {
            let e = parse(src).unwrap();
            assert_eq!(parse(&e.to_string()).unwrap(), e, "{src}");
        }
    }

    #[test]
    fn nested_aggregates_in_filter_are_allowed() {
        // A filter can itself reference an aggregate (correlated-style).
        let e = parse("COUNT(t WHERE t.v > SUM(u.w)) = 0");
        assert!(e.is_ok());
    }
}
