//! The SQL dialect: lexer, AST, and recursive-descent parser.
//!
//! Covers every statement the paper quotes (`CREATE FUNCTION ...
//! EXTERNAL NAME ... LANGUAGE C`, `CREATE SECONDARY ACCESS_METHOD`,
//! `CREATE OPCLASS ... STRATEGIES(...) SUPPORT(...)`, `CREATE INDEX ...
//! USING ... IN ...`, and the DML around them), plus the small amount of
//! session control the tests need (`BEGIN WORK`, `COMMIT WORK`,
//! `ROLLBACK WORK`, `SET ISOLATION`, `SET TRACE`, `CHECK INDEX`,
//! `UPDATE STATISTICS`).

use crate::value::Value;
use crate::{IdsError, Result};

/// A literal value in SQL text.
#[derive(Debug, Clone, PartialEq)]
pub enum Lit {
    /// Integer literal.
    Int(i64),
    /// String literal (single- or double-quoted).
    Str(String),
    /// TRUE / FALSE.
    Bool(bool),
    /// NULL.
    Null,
}

/// A scalar or boolean expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal.
    Literal(Lit),
    /// A column reference.
    Column(String),
    /// A function call `f(a, b, ...)`.
    Call {
        /// Function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// A comparison `a op b` with `op` one of `= != < <= > >=`.
    Cmp {
        /// Operator text.
        op: String,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Conjunction.
    And(Vec<Expr>),
    /// Disjunction.
    Or(Vec<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// A positional parameter `?` (0-based, in textual order). Appears
    /// in prepared statements and in plan-cache templates; it must be
    /// bound to a value before execution.
    Param(usize),
    /// A parameter bound to a concrete value. Never produced by the
    /// parser: the engine substitutes these for [`Expr::Param`] when a
    /// compiled statement is executed.
    Bound(Value),
}

/// The selected column list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectCols {
    /// `SELECT *`
    Star,
    /// Named columns.
    Named(Vec<String>),
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (col type, ...)`
    CreateTable {
        name: String,
        columns: Vec<(String, String)>,
    },
    /// `DROP TABLE name`
    DropTable { name: String },
    /// `CREATE FUNCTION name(type, ...) RETURNING type EXTERNAL NAME '...' LANGUAGE C`
    CreateFunction {
        name: String,
        args: Vec<String>,
        returns: String,
        external: String,
    },
    /// `DROP FUNCTION name`
    DropFunction { name: String },
    /// `CREATE SECONDARY ACCESS_METHOD name (am_x = f, ..., am_sptype = "S")`
    CreateAccessMethod {
        name: String,
        bindings: Vec<(String, String)>,
    },
    /// `CREATE OPCLASS name FOR am STRATEGIES(f, ...) SUPPORT(g, ...)`
    CreateOpClass {
        name: String,
        access_method: String,
        strategies: Vec<String>,
        supports: Vec<String>,
    },
    /// `CREATE INDEX name ON table(col [opclass], ...) USING am [IN space]`
    CreateIndex {
        name: String,
        table: String,
        columns: Vec<(String, Option<String>)>,
        using: String,
        space: Option<String>,
    },
    /// `DROP INDEX name`
    DropIndex { name: String },
    /// `DROP SECONDARY ACCESS_METHOD name`
    DropAccessMethod { name: String },
    /// `DROP OPCLASS name`
    DropOpClass { name: String },
    /// `INSERT INTO table VALUES (expr, ...)`
    Insert { table: String, values: Vec<Expr> },
    /// `SELECT cols FROM table [WHERE expr]`
    Select {
        columns: SelectCols,
        table: String,
        where_clause: Option<Expr>,
    },
    /// `DELETE FROM table [WHERE expr]`
    Delete {
        table: String,
        where_clause: Option<Expr>,
    },
    /// `UPDATE table SET col = expr, ... [WHERE expr]`
    Update {
        table: String,
        sets: Vec<(String, Expr)>,
        where_clause: Option<Expr>,
    },
    /// `BEGIN [WORK]`
    Begin,
    /// `COMMIT [WORK]`
    Commit,
    /// `ROLLBACK [WORK]`
    Rollback,
    /// `SET ISOLATION TO <level>`
    SetIsolation { level: String },
    /// `SET TRACE 'class' TO <level>` / `SET TRACE 'class' OFF` switch
    /// a class globally; `SET TRACE ON 'class' [LEVEL n]` and
    /// `SET TRACE OFF ['class']` do so for the issuing session only.
    SetTrace {
        /// `None` only for `SET TRACE OFF` with no class, which clears
        /// every class the session had enabled.
        class: Option<String>,
        /// `None` disables.
        level: Option<u8>,
        /// Session-scoped (`ON`/`OFF` forms) vs global (`TO` form).
        session: bool,
    },
    /// `SET EXPLAIN ON|OFF` — planner decisions traced for the session.
    SetExplain { on: bool },
    /// `CHECK INDEX name` (runs `am_check`)
    CheckIndex { name: String },
    /// `UPDATE STATISTICS FOR INDEX name` (runs `am_stats`)
    UpdateStatistics { index: String },
    /// `LOAD FROM 'file' INSERT INTO table` — bulk load through the
    /// text-file *import* support functions (Section 6.3, item 3).
    Load { path: String, table: String },
    /// `ALTER FUNCTION f NEGATOR g` / `ALTER FUNCTION f COMMUTATOR g` —
    /// the only inter-routine relationships Informix can record
    /// (Section 5.2).
    AlterFunction {
        name: String,
        negator: Option<String>,
        commutator: Option<String>,
    },
    /// `PREPARE name FROM '<sql>'` — compile a statement once; `?`
    /// placeholders become typed parameter slots.
    Prepare { name: String, sql: String },
    /// `EXECUTE name [USING v1, v2, ...]` — run a prepared statement
    /// with the given parameter values.
    Execute { name: String, using: Vec<Expr> },
    /// `DEALLOCATE [PREPARE] name` — drop a prepared statement.
    Deallocate { name: String },
}

impl Expr {
    /// Calls `f` on this expression and every one nested in it, parents
    /// first, left to right.
    pub(crate) fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Call { args, .. } => args.iter().for_each(|a| a.visit(f)),
            Expr::Cmp { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            Expr::And(parts) | Expr::Or(parts) => parts.iter().for_each(|p| p.visit(f)),
            Expr::Not(inner) => inner.visit(f),
            Expr::Literal(_) | Expr::Column(_) | Expr::Param(_) | Expr::Bound(_) => {}
        }
    }

    /// [`Expr::visit`] with leave to rewrite each expression in place.
    fn visit_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        f(self);
        match self {
            Expr::Call { args, .. } => args.iter_mut().for_each(|a| a.visit_mut(f)),
            Expr::Cmp { left, right, .. } => {
                left.visit_mut(f);
                right.visit_mut(f);
            }
            Expr::And(parts) | Expr::Or(parts) => parts.iter_mut().for_each(|p| p.visit_mut(f)),
            Expr::Not(inner) => inner.visit_mut(f),
            Expr::Literal(_) | Expr::Column(_) | Expr::Param(_) | Expr::Bound(_) => {}
        }
    }
}

impl Statement {
    /// INSERT / SELECT / DELETE / UPDATE — the statements that run the
    /// resolve → bind → plan → execute path.
    pub fn is_dml(&self) -> bool {
        use Statement::{Delete, Insert, Select, Update};
        matches!(
            self,
            Insert { .. } | Select { .. } | Delete { .. } | Update { .. }
        )
    }
}

/// Calls `f` on every expression (recursively) in a statement, with
/// leave to rewrite it in place.
pub(crate) fn visit_exprs_mut(stmt: &mut Statement, f: &mut impl FnMut(&mut Expr)) {
    match stmt {
        Statement::Insert { values, .. } => values.iter_mut().for_each(|v| v.visit_mut(f)),
        Statement::Select { where_clause, .. } | Statement::Delete { where_clause, .. } => {
            where_clause.iter_mut().for_each(|w| w.visit_mut(f))
        }
        Statement::Update {
            sets, where_clause, ..
        } => sets
            .iter_mut()
            .map(|(_, e)| e)
            .chain(where_clause)
            .for_each(|e| e.visit_mut(f)),
        Statement::Execute { using, .. } => using.iter_mut().for_each(|u| u.visit_mut(f)),
        _ => {}
    }
}

/// Calls `f` on every expression (recursively) in a statement.
fn visit_exprs(stmt: &Statement, f: &mut impl FnMut(&Expr)) {
    match stmt {
        Statement::Insert { values, .. } => values.iter().for_each(|v| v.visit(f)),
        Statement::Select { where_clause, .. } | Statement::Delete { where_clause, .. } => {
            where_clause.iter().for_each(|w| w.visit(f))
        }
        Statement::Update {
            sets, where_clause, ..
        } => sets
            .iter()
            .map(|(_, e)| e)
            .chain(where_clause)
            .for_each(|e| e.visit(f)),
        Statement::Execute { using, .. } => using.iter().for_each(|u| u.visit(f)),
        _ => {}
    }
}

/// Number of positional parameter slots a statement needs (highest
/// `?` index + 1).
pub fn param_count(stmt: &Statement) -> usize {
    let mut n = 0;
    visit_exprs(stmt, &mut |e| {
        if let Expr::Param(i) = e {
            n = n.max(i + 1);
        }
    });
    n
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Num(i64),
    Sym(String),
}

fn lex(input: &str) -> Result<Vec<Tok>> {
    let mut out = Vec::new();
    let bytes: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            c if c.is_whitespace() => i += 1,
            '-' if bytes.get(i + 1) == Some(&'-') => {
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '\'' | '"' => {
                let quote = c;
                let mut s = String::new();
                i += 1;
                loop {
                    match bytes.get(i) {
                        None => return Err(IdsError::Parse("unterminated string".into())),
                        Some(&ch) if ch == quote => {
                            if bytes.get(i + 1) == Some(&quote) {
                                s.push(quote);
                                i += 2;
                            } else {
                                i += 1;
                                break;
                            }
                        }
                        Some(&ch) => {
                            s.push(ch);
                            i += 1;
                        }
                    }
                }
                out.push(Tok::Str(s));
            }
            c if c.is_ascii_digit()
                || (c == '-' && bytes.get(i + 1).is_some_and(|d| d.is_ascii_digit())) =>
            {
                let start = i;
                i += 1;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                out.push(Tok::Num(
                    text.parse()
                        .map_err(|_| IdsError::Parse(format!("bad number {text}")))?,
                ));
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                out.push(Tok::Ident(bytes[start..i].iter().collect()));
            }
            '!' | '<' | '>' if bytes.get(i + 1) == Some(&'=') => {
                out.push(Tok::Sym(format!("{c}=")));
                i += 2;
            }
            '(' | ')' | ',' | '=' | ';' | '*' | '.' | '<' | '>' | '?' => {
                out.push(Tok::Sym(c.to_string()));
                i += 1;
            }
            other => return Err(IdsError::Parse(format!("unexpected character {other:?}"))),
        }
    }
    Ok(out)
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    /// Positional parameters seen so far; each `?` takes the next index.
    params: usize,
    /// Literals become parameters too (plan-cache normalization). A
    /// literal is only ever consumed by `primary`, so the slots number
    /// the statement's literal tokens in order.
    lift: bool,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Result<Tok> {
        let t = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or_else(|| IdsError::Parse("unexpected end of statement".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn is_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.is_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(IdsError::Parse(format!(
                "expected {kw}, got {:?}",
                self.peek()
            )))
        }
    }

    fn expect_sym(&mut self, sym: &str) -> Result<()> {
        match self.next()? {
            Tok::Sym(s) if s == sym => Ok(()),
            other => Err(IdsError::Parse(format!("expected {sym:?}, got {other:?}"))),
        }
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Sym(s)) if s == sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            other => Err(IdsError::Parse(format!(
                "expected identifier, got {other:?}"
            ))),
        }
    }

    fn string(&mut self) -> Result<String> {
        match self.next()? {
            Tok::Str(s) => Ok(s),
            other => Err(IdsError::Parse(format!("expected string, got {other:?}"))),
        }
    }

    /// A comma-separated list of identifiers inside parentheses.
    fn ident_list(&mut self) -> Result<Vec<String>> {
        self.expect_sym("(")?;
        let mut out = Vec::new();
        if !self.eat_sym(")") {
            loop {
                out.push(self.ident()?);
                if self.eat_sym(")") {
                    break;
                }
                self.expect_sym(",")?;
            }
        }
        Ok(out)
    }

    fn statement(&mut self) -> Result<Statement> {
        let head = self.ident()?;
        match head.to_ascii_uppercase().as_str() {
            "CREATE" => self.create(),
            "DROP" => self.drop(),
            "INSERT" => self.insert(),
            "SELECT" => self.select(),
            "DELETE" => self.delete(),
            "UPDATE" => self.update(),
            "BEGIN" => {
                self.eat_kw("WORK");
                Ok(Statement::Begin)
            }
            "COMMIT" => {
                self.eat_kw("WORK");
                Ok(Statement::Commit)
            }
            "ROLLBACK" => {
                self.eat_kw("WORK");
                Ok(Statement::Rollback)
            }
            "SET" => self.set(),
            "PREPARE" => {
                let name = self.ident()?;
                self.expect_kw("FROM")?;
                let sql = self.string()?;
                Ok(Statement::Prepare { name, sql })
            }
            "EXECUTE" => {
                let name = self.ident()?;
                let mut using = Vec::new();
                if self.eat_kw("USING") {
                    loop {
                        using.push(self.expr()?);
                        if !self.eat_sym(",") {
                            break;
                        }
                    }
                }
                Ok(Statement::Execute { name, using })
            }
            "DEALLOCATE" => {
                self.eat_kw("PREPARE");
                Ok(Statement::Deallocate {
                    name: self.ident()?,
                })
            }
            "CHECK" => {
                self.expect_kw("INDEX")?;
                Ok(Statement::CheckIndex {
                    name: self.ident()?,
                })
            }
            "LOAD" => {
                self.expect_kw("FROM")?;
                let path = self.string()?;
                self.expect_kw("INSERT")?;
                self.expect_kw("INTO")?;
                Ok(Statement::Load {
                    path,
                    table: self.ident()?,
                })
            }
            "ALTER" => {
                self.expect_kw("FUNCTION")?;
                let name = self.ident()?;
                let mut negator = None;
                let mut commutator = None;
                loop {
                    if self.eat_kw("NEGATOR") {
                        negator = Some(self.ident()?);
                    } else if self.eat_kw("COMMUTATOR") {
                        commutator = Some(self.ident()?);
                    } else {
                        break;
                    }
                }
                if negator.is_none() && commutator.is_none() {
                    return Err(IdsError::Parse("expected NEGATOR or COMMUTATOR".into()));
                }
                Ok(Statement::AlterFunction {
                    name,
                    negator,
                    commutator,
                })
            }
            other => Err(IdsError::Parse(format!("unknown statement {other}"))),
        }
    }

    fn create(&mut self) -> Result<Statement> {
        if self.eat_kw("TABLE") {
            let name = self.ident()?;
            self.expect_sym("(")?;
            let mut columns = Vec::new();
            loop {
                let col = self.ident()?;
                let ty = self.ident()?;
                columns.push((col, ty));
                if self.eat_sym(")") {
                    break;
                }
                self.expect_sym(",")?;
            }
            return Ok(Statement::CreateTable { name, columns });
        }
        if self.eat_kw("FUNCTION") {
            let name = self.ident()?;
            let args = self.ident_list()?;
            self.expect_kw("RETURNING")?;
            let returns = self.ident()?;
            self.expect_kw("EXTERNAL")?;
            self.expect_kw("NAME")?;
            let external = self.string()?;
            self.expect_kw("LANGUAGE")?;
            let _lang = self.ident()?;
            return Ok(Statement::CreateFunction {
                name,
                args,
                returns,
                external,
            });
        }
        if self.eat_kw("SECONDARY") {
            self.expect_kw("ACCESS_METHOD")?;
            let name = self.ident()?;
            self.expect_sym("(")?;
            let mut bindings = Vec::new();
            loop {
                let slot = self.ident()?;
                self.expect_sym("=")?;
                let value = match self.next()? {
                    Tok::Ident(s) | Tok::Str(s) => s,
                    other => return Err(IdsError::Parse(format!("bad binding value {other:?}"))),
                };
                bindings.push((slot, value));
                if self.eat_sym(")") {
                    break;
                }
                self.expect_sym(",")?;
            }
            return Ok(Statement::CreateAccessMethod { name, bindings });
        }
        if self.eat_kw("OPCLASS") {
            let name = self.ident()?;
            self.expect_kw("FOR")?;
            let access_method = self.ident()?;
            self.expect_kw("STRATEGIES")?;
            let strategies = self.ident_list()?;
            let supports = if self.eat_kw("SUPPORT") {
                self.ident_list()?
            } else {
                Vec::new()
            };
            return Ok(Statement::CreateOpClass {
                name,
                access_method,
                strategies,
                supports,
            });
        }
        if self.eat_kw("INDEX") {
            let name = self.ident()?;
            self.expect_kw("ON")?;
            let table = self.ident()?;
            self.expect_sym("(")?;
            let mut columns = Vec::new();
            loop {
                let col = self.ident()?;
                let opclass = match self.peek() {
                    Some(Tok::Ident(_)) => Some(self.ident()?),
                    _ => None,
                };
                columns.push((col, opclass));
                if self.eat_sym(")") {
                    break;
                }
                self.expect_sym(",")?;
            }
            self.expect_kw("USING")?;
            let using = self.ident()?;
            let space = if self.eat_kw("IN") {
                Some(self.ident()?)
            } else {
                None
            };
            return Ok(Statement::CreateIndex {
                name,
                table,
                columns,
                using,
                space,
            });
        }
        Err(IdsError::Parse(
            "expected TABLE, FUNCTION, SECONDARY, OPCLASS or INDEX".into(),
        ))
    }

    fn drop(&mut self) -> Result<Statement> {
        if self.eat_kw("TABLE") {
            return Ok(Statement::DropTable {
                name: self.ident()?,
            });
        }
        if self.eat_kw("INDEX") {
            return Ok(Statement::DropIndex {
                name: self.ident()?,
            });
        }
        if self.eat_kw("FUNCTION") {
            return Ok(Statement::DropFunction {
                name: self.ident()?,
            });
        }
        if self.eat_kw("SECONDARY") {
            self.expect_kw("ACCESS_METHOD")?;
            return Ok(Statement::DropAccessMethod {
                name: self.ident()?,
            });
        }
        if self.eat_kw("OPCLASS") {
            return Ok(Statement::DropOpClass {
                name: self.ident()?,
            });
        }
        Err(IdsError::Parse(
            "expected TABLE, INDEX, FUNCTION, SECONDARY or OPCLASS".into(),
        ))
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        self.expect_kw("VALUES")?;
        self.expect_sym("(")?;
        let mut values = Vec::new();
        loop {
            values.push(self.expr()?);
            if self.eat_sym(")") {
                break;
            }
            self.expect_sym(",")?;
        }
        Ok(Statement::Insert { table, values })
    }

    fn select(&mut self) -> Result<Statement> {
        let columns = if self.eat_sym("*") {
            SelectCols::Star
        } else {
            let mut cols = vec![self.ident()?];
            while self.eat_sym(",") {
                cols.push(self.ident()?);
            }
            SelectCols::Named(cols)
        };
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Select {
            columns,
            table,
            where_clause,
        })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete {
            table,
            where_clause,
        })
    }

    fn update(&mut self) -> Result<Statement> {
        // `UPDATE STATISTICS FOR INDEX ix` piggybacks on UPDATE.
        if self.eat_kw("STATISTICS") {
            self.expect_kw("FOR")?;
            self.expect_kw("INDEX")?;
            return Ok(Statement::UpdateStatistics {
                index: self.ident()?,
            });
        }
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_sym("=")?;
            sets.push((col, self.expr()?));
            if !self.eat_sym(",") {
                break;
            }
        }
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            sets,
            where_clause,
        })
    }

    fn set(&mut self) -> Result<Statement> {
        if self.eat_kw("ISOLATION") {
            self.expect_kw("TO")?;
            let mut level = self.ident()?;
            // Accept two-word levels such as "REPEATABLE READ".
            if let Some(Tok::Ident(_)) = self.peek() {
                level = format!("{level} {}", self.ident()?);
            }
            return Ok(Statement::SetIsolation { level });
        }
        if self.eat_kw("TRACE") {
            // Session-scoped forms: SET TRACE ON 'class' [LEVEL n],
            // SET TRACE OFF ['class'].
            if self.eat_kw("ON") {
                let class = self.string()?;
                let level = if self.eat_kw("LEVEL") {
                    match self.next()? {
                        Tok::Num(n) => n as u8,
                        other => return Err(IdsError::Parse(format!("bad trace level {other:?}"))),
                    }
                } else {
                    1
                };
                return Ok(Statement::SetTrace {
                    class: Some(class),
                    level: Some(level),
                    session: true,
                });
            }
            if self.eat_kw("OFF") {
                let class = match self.peek() {
                    Some(Tok::Str(_)) => Some(self.string()?),
                    _ => None,
                };
                return Ok(Statement::SetTrace {
                    class,
                    level: None,
                    session: true,
                });
            }
            // Global forms: SET TRACE 'class' TO n / SET TRACE 'class' OFF.
            let class = self.string()?;
            if self.eat_kw("OFF") {
                return Ok(Statement::SetTrace {
                    class: Some(class),
                    level: None,
                    session: false,
                });
            }
            self.expect_kw("TO")?;
            match self.next()? {
                Tok::Num(n) => Ok(Statement::SetTrace {
                    class: Some(class),
                    level: Some(n as u8),
                    session: false,
                }),
                other => Err(IdsError::Parse(format!("bad trace level {other:?}"))),
            }
        } else if self.eat_kw("EXPLAIN") {
            if self.eat_kw("ON") {
                Ok(Statement::SetExplain { on: true })
            } else if self.eat_kw("OFF") {
                Ok(Statement::SetExplain { on: false })
            } else {
                Err(IdsError::Parse("expected ON or OFF after EXPLAIN".into()))
            }
        } else {
            Err(IdsError::Parse(
                "expected ISOLATION, TRACE, or EXPLAIN".into(),
            ))
        }
    }

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let first = self.and_expr()?;
        let mut parts = vec![first];
        while self.eat_kw("OR") {
            parts.push(self.and_expr()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            Expr::Or(parts)
        })
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let first = self.cmp_expr()?;
        let mut parts = vec![first];
        while self.eat_kw("AND") {
            parts.push(self.cmp_expr()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            Expr::And(parts)
        })
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let left = self.primary()?;
        if let Some(Tok::Sym(op)) = self.peek() {
            if matches!(op.as_str(), "=" | "!=" | "<" | "<=" | ">" | ">=") {
                let op = op.clone();
                self.pos += 1;
                let right = self.primary()?;
                return Ok(Expr::Cmp {
                    op,
                    left: Box::new(left),
                    right: Box::new(right),
                });
            }
        }
        Ok(left)
    }

    fn primary(&mut self) -> Result<Expr> {
        if self.eat_kw("NOT") {
            return Ok(Expr::Not(Box::new(self.primary()?)));
        }
        let lifted = self.lift && matches!(self.peek(), Some(Tok::Num(_) | Tok::Str(_)));
        if lifted {
            self.pos += 1;
        }
        if lifted || self.eat_sym("?") {
            self.params += 1;
            return Ok(Expr::Param(self.params - 1));
        }
        if self.eat_sym("(") {
            let e = self.expr()?;
            self.expect_sym(")")?;
            return Ok(e);
        }
        match self.next()? {
            Tok::Num(n) => Ok(Expr::Literal(Lit::Int(n))),
            Tok::Str(s) => Ok(Expr::Literal(Lit::Str(s))),
            Tok::Ident(id) => {
                if id.eq_ignore_ascii_case("true") {
                    return Ok(Expr::Literal(Lit::Bool(true)));
                }
                if id.eq_ignore_ascii_case("false") {
                    return Ok(Expr::Literal(Lit::Bool(false)));
                }
                if id.eq_ignore_ascii_case("null") {
                    return Ok(Expr::Literal(Lit::Null));
                }
                if self.eat_sym("(") {
                    let mut args = Vec::new();
                    if !self.eat_sym(")") {
                        loop {
                            args.push(self.expr()?);
                            if self.eat_sym(")") {
                                break;
                            }
                            self.expect_sym(",")?;
                        }
                    }
                    return Ok(Expr::Call { name: id, args });
                }
                Ok(Expr::Column(id))
            }
            other => Err(IdsError::Parse(format!("unexpected token {other:?}"))),
        }
    }
}

/// Parses one statement (an optional trailing semicolon is allowed).
pub fn parse(input: &str) -> Result<Statement> {
    parse_tokens(lex(input)?, false)
}

fn parse_tokens(toks: Vec<Tok>, lift: bool) -> Result<Statement> {
    let mut p = Parser {
        toks,
        pos: 0,
        params: 0,
        lift,
    };
    let stmt = p.statement()?;
    p.eat_sym(";");
    if p.pos != p.toks.len() {
        return Err(IdsError::Parse(format!(
            "trailing input after statement: {:?}",
            p.toks[p.pos..].iter().take(3).collect::<Vec<_>>()
        )));
    }
    Ok(stmt)
}

/// A DML statement with its literals lifted into positional parameters:
/// the plan-cache key, the token stream (parsed lazily — a plan cache
/// hit on `key` never parses at all), and the lifted argument values.
pub struct Normalized {
    /// The cache key: the token stream with every literal replaced by
    /// `?` and identifiers uppercased, so `select * from T where id=3`
    /// and `SELECT * FROM t WHERE id = 7` share one plan.
    pub key: String,
    /// The lifted literal values, in parameter order.
    pub args: Vec<Lit>,
    /// The statement's own tokens, so a syntax error reads as written.
    toks: Vec<Tok>,
}

impl Normalized {
    /// Parses the statement with every literal lifted to an
    /// [`Expr::Param`]. Only needed on a plan-cache miss.
    pub fn parse(self) -> Result<Statement> {
        parse_tokens(self.toks, true)
    }
}

/// Normalizes a DML statement (INSERT / SELECT / DELETE / UPDATE) for
/// the transparent plan cache by lifting its literals to parameters.
/// Returns `Ok(None)` for non-DML statements and for text that already
/// contains explicit `?` placeholders (those arrive only via `PREPARE`,
/// which keeps its own compiled handle).
pub fn normalize_dml(input: &str) -> Result<Option<Normalized>> {
    let toks = lex(input)?;
    let head_is =
        |kw: &str| matches!(toks.first(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw));
    let dml = head_is("INSERT")
        || head_is("SELECT")
        || head_is("DELETE")
        || (head_is("UPDATE")
            && !matches!(toks.get(1), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("STATISTICS")));
    if !dml || toks.iter().any(|t| matches!(t, Tok::Sym(s) if s == "?")) {
        return Ok(None);
    }
    let mut args = Vec::new();
    let mut key = String::new();
    for t in &toks {
        if !key.is_empty() {
            key.push(' ');
        }
        match t {
            Tok::Num(n) => {
                args.push(Lit::Int(*n));
                key.push('?');
            }
            Tok::Str(s) => {
                args.push(Lit::Str(s.clone()));
                key.push('?');
            }
            Tok::Ident(s) => key.push_str(&s.to_ascii_uppercase()),
            Tok::Sym(s) => key.push_str(s),
        }
    }
    Ok(Some(Normalized { key, args, toks }))
}

/// Splits a script into statements on semicolons outside strings and
/// comments (the lexer knows both) and parses each.
pub fn parse_script(input: &str) -> Result<Vec<Statement>> {
    lex(input)?
        .split(|t| matches!(t, Tok::Sym(s) if s == ";"))
        .filter(|toks| !toks.is_empty())
        .map(|toks| parse_tokens(toks.to_vec(), false))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_statements() {
        // Every SQL example quoted in the paper, verbatim modulo the
        // typographic quotes.
        let create_fn = parse(
            "CREATE FUNCTION grt_open(pointer) RETURNING int \
             EXTERNAL NAME 'usr/functions/grtree.bld(grt_open)' LANGUAGE c;",
        )
        .unwrap();
        assert_eq!(
            create_fn,
            Statement::CreateFunction {
                name: "grt_open".into(),
                args: vec!["pointer".into()],
                returns: "int".into(),
                external: "usr/functions/grtree.bld(grt_open)".into(),
            }
        );

        let create_am = parse(
            "CREATE SECONDARY ACCESS_METHOD grtree_am ( am_create = grt_create, \
             am_open = grt_open, am_getnext = grt_getnext, am_close = grt_close, \
             am_drop = grt_drop, am_sptype = 'S' );",
        )
        .unwrap();
        match create_am {
            Statement::CreateAccessMethod { name, bindings } => {
                assert_eq!(name, "grtree_am");
                assert_eq!(bindings.len(), 6);
                assert_eq!(bindings[5], ("am_sptype".into(), "S".into()));
            }
            other => panic!("{other:?}"),
        }

        let create_oc = parse(
            "CREATE OPCLASS grt_opclass FOR grtree_am \
             STRATEGIES(grt_overlap, grt_contains, grt_containedin, grt_equal) \
             SUPPORT(grt_union, grt_size, grt_intersection);",
        )
        .unwrap();
        match create_oc {
            Statement::CreateOpClass {
                strategies,
                supports,
                ..
            } => {
                assert_eq!(strategies.len(), 4);
                assert_eq!(supports.len(), 3);
            }
            other => panic!("{other:?}"),
        }

        let create_ix = parse(
            "CREATE INDEX grt_index ON employees(column1 grt_opclass) USING grtree_am IN spc;",
        )
        .unwrap();
        assert_eq!(
            create_ix,
            Statement::CreateIndex {
                name: "grt_index".into(),
                table: "employees".into(),
                columns: vec![("column1".into(), Some("grt_opclass".into()))],
                using: "grtree_am".into(),
                space: Some("spc".into()),
            }
        );

        let select = parse(
            "SELECT Name FROM Employees \
             WHERE Overlaps(Time_Extent, \"12/10/95, UC, 12/10/95, NOW\")",
        )
        .unwrap();
        match select {
            Statement::Select {
                columns,
                table,
                where_clause: Some(Expr::Call { name, args }),
            } => {
                assert_eq!(columns, SelectCols::Named(vec!["Name".into()]));
                assert_eq!(table, "Employees");
                assert_eq!(name, "Overlaps");
                assert_eq!(args.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_boolean_structure() {
        let s = parse("SELECT * FROM t WHERE (f(a, 'x') AND g(a, 'y')) OR NOT h(a, 'z') AND b = 3")
            .unwrap();
        let Statement::Select {
            where_clause: Some(e),
            ..
        } = s
        else {
            panic!()
        };
        match e {
            Expr::Or(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(parts[0], Expr::And(_)));
                assert!(matches!(parts[1], Expr::And(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_dml_and_session_control() {
        assert_eq!(parse("BEGIN WORK").unwrap(), Statement::Begin);
        assert_eq!(parse("commit").unwrap(), Statement::Commit);
        assert_eq!(parse("ROLLBACK WORK;").unwrap(), Statement::Rollback);
        assert_eq!(
            parse("SET ISOLATION TO REPEATABLE READ").unwrap(),
            Statement::SetIsolation {
                level: "REPEATABLE READ".into()
            }
        );
        assert_eq!(
            parse("SET TRACE 'AM' TO 2").unwrap(),
            Statement::SetTrace {
                class: Some("AM".into()),
                level: Some(2),
                session: false
            }
        );
        assert_eq!(
            parse("SET TRACE 'AM' OFF").unwrap(),
            Statement::SetTrace {
                class: Some("AM".into()),
                level: None,
                session: false
            }
        );
        assert_eq!(
            parse("SET TRACE ON 'AM' LEVEL 2").unwrap(),
            Statement::SetTrace {
                class: Some("AM".into()),
                level: Some(2),
                session: true
            }
        );
        assert_eq!(
            parse("SET TRACE ON 'GRT'").unwrap(),
            Statement::SetTrace {
                class: Some("GRT".into()),
                level: Some(1),
                session: true
            }
        );
        assert_eq!(
            parse("SET TRACE OFF 'AM'").unwrap(),
            Statement::SetTrace {
                class: Some("AM".into()),
                level: None,
                session: true
            }
        );
        assert_eq!(
            parse("SET TRACE OFF").unwrap(),
            Statement::SetTrace {
                class: None,
                level: None,
                session: true
            }
        );
        assert_eq!(
            parse("SET EXPLAIN ON").unwrap(),
            Statement::SetExplain { on: true }
        );
        assert_eq!(
            parse("SET EXPLAIN OFF").unwrap(),
            Statement::SetExplain { on: false }
        );
        // Not a SET target: the error names the three there are.
        assert_eq!(
            parse("SET PARALLEL 4"),
            Err(IdsError::Parse(
                "expected ISOLATION, TRACE, or EXPLAIN".into()
            ))
        );
        assert_eq!(
            parse("CHECK INDEX grt_index").unwrap(),
            Statement::CheckIndex {
                name: "grt_index".into()
            }
        );
        assert_eq!(
            parse("UPDATE STATISTICS FOR INDEX grt_index").unwrap(),
            Statement::UpdateStatistics {
                index: "grt_index".into()
            }
        );
        let upd = parse("UPDATE t SET a = 1, b = 'x' WHERE c = 2").unwrap();
        match upd {
            Statement::Update { sets, .. } => assert_eq!(sets.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn string_escapes_and_errors() {
        let s = parse("INSERT INTO t VALUES ('it''s here')").unwrap();
        match s {
            Statement::Insert { values, .. } => {
                assert_eq!(values[0], Expr::Literal(Lit::Str("it's here".into())));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse("SELECT FROM").is_err());
        assert!(parse("CREATE SOMETHING x").is_err());
        assert!(parse("INSERT INTO t VALUES ('unterminated)").is_err());
        assert!(parse("SELECT * FROM t WHERE a = 1 garbage garbage").is_err());
    }

    #[test]
    fn parses_prepared_statement_syntax() {
        assert_eq!(
            parse("PREPARE p FROM 'SELECT * FROM t WHERE id = ?'").unwrap(),
            Statement::Prepare {
                name: "p".into(),
                sql: "SELECT * FROM t WHERE id = ?".into()
            }
        );
        assert_eq!(
            parse("EXECUTE p USING 1, 'x'").unwrap(),
            Statement::Execute {
                name: "p".into(),
                using: vec![
                    Expr::Literal(Lit::Int(1)),
                    Expr::Literal(Lit::Str("x".into()))
                ]
            }
        );
        assert_eq!(
            parse("EXECUTE p").unwrap(),
            Statement::Execute {
                name: "p".into(),
                using: vec![]
            }
        );
        assert_eq!(
            parse("DEALLOCATE PREPARE p;").unwrap(),
            Statement::Deallocate { name: "p".into() }
        );
        assert_eq!(
            parse("DEALLOCATE p").unwrap(),
            Statement::Deallocate { name: "p".into() }
        );
        // `?` placeholders number left to right.
        let s = parse("UPDATE t SET a = ?, b = ? WHERE c = ?").unwrap();
        match &s {
            Statement::Update {
                sets, where_clause, ..
            } => {
                assert_eq!(sets[0].1, Expr::Param(0));
                assert_eq!(sets[1].1, Expr::Param(1));
                assert_eq!(
                    where_clause,
                    &Some(Expr::Cmp {
                        op: "=".into(),
                        left: Box::new(Expr::Column("c".into())),
                        right: Box::new(Expr::Param(2)),
                    })
                );
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(param_count(&s), 3);
        assert!(parse("PREPARE p").is_err());
    }

    #[test]
    fn normalization_lifts_literals() {
        let n = normalize_dml("select id from T where id = 42 AND name = 'Julie'")
            .unwrap()
            .unwrap();
        assert_eq!(n.key, "SELECT ID FROM T WHERE ID = ? AND NAME = ?");
        assert_eq!(n.args, vec![Lit::Int(42), Lit::Str("Julie".into())]);
        // Different literals, same key: one cache entry.
        let m = normalize_dml("SELECT id FROM t WHERE id = 7 AND name = 'Ada'")
            .unwrap()
            .unwrap();
        assert_eq!(m.key, n.key);
        assert_eq!(param_count(&n.parse().unwrap()), 2);
        // Non-DML and explicit-param statements are not normalized.
        assert!(normalize_dml("CREATE TABLE t (id integer)")
            .unwrap()
            .is_none());
        assert!(normalize_dml("UPDATE STATISTICS FOR INDEX ix")
            .unwrap()
            .is_none());
        assert!(normalize_dml("SELECT * FROM t WHERE id = ?")
            .unwrap()
            .is_none());
        // Malformed DML normalizes (parsing is lazy) but fails to parse.
        assert!(normalize_dml("SELECT FROM WHERE")
            .unwrap()
            .unwrap()
            .parse()
            .is_err());
    }

    #[test]
    fn script_splitting_respects_strings() {
        let script =
            "CREATE TABLE a (x int); INSERT INTO a VALUES ('semi ; colon'); SELECT * FROM a";
        let stmts = parse_script(script).unwrap();
        assert_eq!(stmts.len(), 3);
    }
}
