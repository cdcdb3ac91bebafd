//! Parsing of the textual IR format produced by the `Display` impls.
//!
//! [`parse_module`] is the inverse of `Module::to_string()`; a property
//! test asserts the round trip. The parser is a hand-written
//! tokenizer + recursive descent, with positions reported in
//! [`ParseError`]s.

use crate::addr::{AddrExpr, MemBase, Offset};
use crate::function::Function;
use crate::ids::{BlockId, FuncId, GlobalId, HeapId, Reg, RegionId, SlotId};
use crate::inst::{BinOp, ExtEffect, Inst, Operand, Terminator, UnOp};
use crate::module::Module;
use std::error::Error;
use std::fmt;

/// A parse failure with source position.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Description of what went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

#[derive(Clone, PartialEq, Debug)]
enum Tok {
    Ident(String),
    Str(String),
    Int(i64),
    Float(f64),
    Punct(char),
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Self { src, pos: 0, line: 1 }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError { line: self.line, message: message.into() }
    }

    fn peek_char(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek_char()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek_char() {
            if c.is_whitespace() {
                self.bump();
            } else if c == '#' {
                while let Some(c) = self.bump() {
                    if c == '\n' {
                        break;
                    }
                }
            } else {
                break;
            }
        }
    }

    fn next_tok(&mut self) -> Result<Option<Tok>, ParseError> {
        self.skip_ws();
        let Some(c) = self.peek_char() else { return Ok(None) };
        if c == '"' {
            self.bump();
            let mut s = String::new();
            loop {
                match self.bump() {
                    Some('"') => break,
                    Some(c) => s.push(c),
                    None => return Err(self.error("unterminated string literal")),
                }
            }
            return Ok(Some(Tok::Str(s)));
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = self.pos;
            while let Some(c) = self.peek_char() {
                if c.is_ascii_alphanumeric() || c == '_' {
                    self.bump();
                } else {
                    break;
                }
            }
            return Ok(Some(Tok::Ident(self.src[start..self.pos].to_string())));
        }
        if c.is_ascii_digit() || c == '-' {
            let start = self.pos;
            self.bump();
            let mut is_float = false;
            while let Some(c) = self.peek_char() {
                if c.is_ascii_digit() {
                    self.bump();
                } else if c == '.' && !is_float {
                    is_float = true;
                    self.bump();
                } else if (c == 'e' || c == 'E') && is_float {
                    self.bump();
                    if matches!(self.peek_char(), Some('+') | Some('-')) {
                        self.bump();
                    }
                } else {
                    break;
                }
            }
            let text = &self.src[start..self.pos];
            // A trailing `f` marks a float immediate even without a dot.
            if self.peek_char() == Some('f') {
                self.bump();
                let v: f64 = text
                    .parse()
                    .map_err(|_| self.error(format!("bad float literal `{text}`")))?;
                return Ok(Some(Tok::Float(v)));
            }
            if is_float {
                return Err(self.error(format!("float literal `{text}` missing `f` suffix")));
            }
            let v: i64 = text
                .parse()
                .map_err(|_| self.error(format!("bad integer literal `{text}`")))?;
            return Ok(Some(Tok::Int(v)));
        }
        self.bump();
        Ok(Some(Tok::Punct(c)))
    }
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    lookahead: Option<Tok>,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Self, ParseError> {
        let mut lexer = Lexer::new(src);
        let lookahead = lexer.next_tok()?;
        Ok(Self { lexer, lookahead })
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        self.lexer.error(message)
    }

    fn peek(&self) -> Option<&Tok> {
        self.lookahead.as_ref()
    }

    fn advance(&mut self) -> Result<Option<Tok>, ParseError> {
        let next = self.lexer.next_tok()?;
        Ok(std::mem::replace(&mut self.lookahead, next))
    }

    fn expect_punct(&mut self, p: char) -> Result<(), ParseError> {
        match self.advance()? {
            Some(Tok::Punct(c)) if c == p => Ok(()),
            other => Err(self.error(format!("expected `{p}`, found {other:?}"))),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.advance()? {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.error(format!("expected identifier, found {other:?}"))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        let id = self.expect_ident()?;
        if id == kw {
            Ok(())
        } else {
            Err(self.error(format!("expected `{kw}`, found `{id}`")))
        }
    }

    fn expect_str(&mut self) -> Result<String, ParseError> {
        match self.advance()? {
            Some(Tok::Str(s)) => Ok(s),
            other => Err(self.error(format!("expected string literal, found {other:?}"))),
        }
    }

    fn expect_int(&mut self) -> Result<i64, ParseError> {
        match self.advance()? {
            Some(Tok::Int(v)) => Ok(v),
            other => Err(self.error(format!("expected integer, found {other:?}"))),
        }
    }

    fn eat_punct(&mut self, p: char) -> Result<bool, ParseError> {
        if matches!(self.peek(), Some(Tok::Punct(c)) if *c == p) {
            self.advance()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// `key=<int>`
    fn expect_kv_int(&mut self, key: &str) -> Result<i64, ParseError> {
        self.expect_keyword(key)?;
        self.expect_punct('=')?;
        self.expect_int()
    }

    /// `v` as the `u32` count `what` is stored as, or an error when it
    /// does not fit.
    fn count(&self, v: i64, what: &str) -> Result<u32, ParseError> {
        u32::try_from(v).map_err(|_| self.error(format!("{what} {v} does not fit in a u32")))
    }

    /// `key=int` for a count stored as `u32`.
    fn expect_kv_count(&mut self, key: &str) -> Result<u32, ParseError> {
        let v = self.expect_kv_int(key)?;
        self.count(v, key)
    }

    /// `key=[int,int,...]`
    fn expect_kv_int_list(&mut self, key: &str) -> Result<Vec<i64>, ParseError> {
        self.expect_keyword(key)?;
        self.expect_punct('=')?;
        self.expect_punct('[')?;
        let mut out = Vec::new();
        if !self.eat_punct(']')? {
            loop {
                out.push(self.expect_int()?);
                if self.eat_punct(']')? {
                    break;
                }
                self.expect_punct(',')?;
            }
        }
        Ok(out)
    }

    fn parse_id_with_prefix(&mut self, id: &str, prefix: &str) -> Result<u32, ParseError> {
        id.strip_prefix(prefix)
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| self.error(format!("expected `{prefix}N` id, found `{id}`")))
    }

    fn parse_reg_ident(&mut self, id: &str) -> Result<Reg, ParseError> {
        Ok(Reg::new(self.parse_id_with_prefix(id, "r")?))
    }

    fn expect_reg(&mut self) -> Result<Reg, ParseError> {
        let id = self.expect_ident()?;
        self.parse_reg_ident(&id)
    }

    fn expect_block_id(&mut self) -> Result<BlockId, ParseError> {
        let id = self.expect_ident()?;
        Ok(BlockId::new(self.parse_id_with_prefix(&id, "bb")?))
    }

    fn expect_region_id(&mut self) -> Result<RegionId, ParseError> {
        let id = self.expect_ident()?;
        Ok(RegionId::new(self.parse_id_with_prefix(&id, "region")?))
    }

    fn parse_operand(&mut self) -> Result<Operand, ParseError> {
        match self.advance()? {
            Some(Tok::Int(v)) => Ok(Operand::ImmI(v)),
            Some(Tok::Float(v)) => Ok(Operand::ImmF(v)),
            Some(Tok::Ident(id)) => Ok(Operand::Reg(self.parse_reg_ident(&id)?)),
            other => Err(self.error(format!("expected operand, found {other:?}"))),
        }
    }

    /// Parses `base[offset]` where base is `gN`/`sN`/`hN`/`[rN]` and offset
    /// is `C` or `rN*S+D`.
    fn parse_addr(&mut self) -> Result<AddrExpr, ParseError> {
        let base = if self.eat_punct('[')? {
            let r = self.expect_reg()?;
            self.expect_punct(']')?;
            MemBase::Reg(r)
        } else {
            let id = self.expect_ident()?;
            if let Some(n) = id.strip_prefix('g').and_then(|n| n.parse().ok()) {
                MemBase::Global(GlobalId::new(n))
            } else if let Some(n) = id.strip_prefix('s').and_then(|n| n.parse().ok()) {
                MemBase::Slot(SlotId::new(n))
            } else if let Some(n) = id.strip_prefix('h').and_then(|n| n.parse().ok()) {
                MemBase::Heap(HeapId::new(n))
            } else {
                return Err(self.error(format!("expected memory base, found `{id}`")));
            }
        };
        self.expect_punct('[')?;
        let offset = match self.peek() {
            Some(Tok::Int(_)) => Offset::Const(self.expect_int()?),
            _ => {
                let index = self.expect_reg()?;
                self.expect_punct('*')?;
                let scale = self.expect_int()?;
                // `+disp`: the lexer folds the sign into the integer
                // when disp is negative, so the `+` is optional — skip it
                // if present, then read the (possibly negative) integer.
                self.eat_punct('+')?;
                let disp = self.expect_int()?;
                Offset::Scaled { index, scale, disp }
            }
        };
        self.expect_punct(']')?;
        Ok(AddrExpr::new(base, offset))
    }

    fn parse_call_args(&mut self) -> Result<Vec<Operand>, ParseError> {
        self.expect_punct('(')?;
        let mut args = Vec::new();
        if !self.eat_punct(')')? {
            loop {
                args.push(self.parse_operand()?);
                if self.eat_punct(')')? {
                    break;
                }
                self.expect_punct(',')?;
            }
        }
        Ok(args)
    }

    fn lookup_binop(name: &str) -> Option<BinOp> {
        BinOp::all().iter().copied().find(|op| op.mnemonic() == name)
    }

    fn lookup_unop(name: &str) -> Option<UnOp> {
        UnOp::all().iter().copied().find(|op| op.mnemonic() == name)
    }

    /// Parses one instruction or terminator line.
    fn parse_line(&mut self) -> Result<Line, ParseError> {
        // Either `rN = <op> ...`, or a no-result opcode.
        let first = self.expect_ident()?;
        if first.starts_with('r') && matches!(self.peek(), Some(Tok::Punct('='))) {
            let dst = self.parse_reg_ident(&first)?;
            self.expect_punct('=')?;
            let op = self.expect_ident()?;
            let inst = match op.as_str() {
                "mov" => Inst::Mov { dst, src: self.parse_operand()? },
                "load" => Inst::Load { dst, addr: self.parse_addr()? },
                "lea" => Inst::Lea { dst, addr: self.parse_addr()? },
                "alloc" => {
                    let site = self.expect_ident()?;
                    let site = HeapId::new(self.parse_id_with_prefix(&site, "h")?);
                    self.expect_punct(',')?;
                    Inst::Alloc { dst, site, size: self.parse_operand()? }
                }
                "call" => {
                    let callee = self.expect_ident()?;
                    let callee = FuncId::new(self.parse_id_with_prefix(&callee, "fn")?);
                    Inst::Call { callee, dst: Some(dst), args: self.parse_call_args()? }
                }
                "callext" => {
                    let name = self.expect_str()?;
                    let effect = self.parse_effect()?;
                    Inst::CallExt {
                        name: name.into(),
                        dst: Some(dst),
                        args: self.parse_call_args()?,
                        effect,
                    }
                }
                other => {
                    if let Some(b) = Self::lookup_binop(other) {
                        let lhs = self.parse_operand()?;
                        self.expect_punct(',')?;
                        let rhs = self.parse_operand()?;
                        Inst::Bin { op: b, dst, lhs, rhs }
                    } else if let Some(u) = Self::lookup_unop(other) {
                        Inst::Un { op: u, dst, src: self.parse_operand()? }
                    } else {
                        return Err(self.error(format!("unknown opcode `{other}`")));
                    }
                }
            };
            return Ok(Line::Inst(inst));
        }
        match first.as_str() {
            "store" => {
                let addr = self.parse_addr()?;
                self.expect_punct(',')?;
                Ok(Line::Inst(Inst::Store { addr, src: self.parse_operand()? }))
            }
            "call" => {
                let callee = self.expect_ident()?;
                let callee = FuncId::new(self.parse_id_with_prefix(&callee, "fn")?);
                Ok(Line::Inst(Inst::Call { callee, dst: None, args: self.parse_call_args()? }))
            }
            "callext" => {
                let name = self.expect_str()?;
                let effect = self.parse_effect()?;
                Ok(Line::Inst(Inst::CallExt {
                    name: name.into(),
                    dst: None,
                    args: self.parse_call_args()?,
                    effect,
                }))
            }
            "setrecovery" => Ok(Line::Inst(Inst::SetRecovery { region: self.expect_region_id()? })),
            "ckptmem" => Ok(Line::Inst(Inst::CheckpointMem { addr: self.parse_addr()? })),
            "ckptreg" => Ok(Line::Inst(Inst::CheckpointReg { reg: self.expect_reg()? })),
            "restore" => Ok(Line::Inst(Inst::Restore { region: self.expect_region_id()? })),
            "jmp" => Ok(Line::Term(Terminator::Jump(self.expect_block_id()?))),
            "br" => {
                let cond = self.parse_operand()?;
                self.expect_punct(',')?;
                let then_bb = self.expect_block_id()?;
                self.expect_punct(',')?;
                let else_bb = self.expect_block_id()?;
                Ok(Line::Term(Terminator::Branch { cond, then_bb, else_bb }))
            }
            "ret" => {
                // `ret` with optional operand: an operand follows if the
                // next token is an int/float/register ident.
                let has_val = match self.peek() {
                    Some(Tok::Int(_)) | Some(Tok::Float(_)) => true,
                    Some(Tok::Ident(s)) => {
                        s.starts_with('r') && s[1..].chars().all(|c| c.is_ascii_digit())
                    }
                    _ => false,
                };
                let val = if has_val { Some(self.parse_operand()?) } else { None };
                Ok(Line::Term(Terminator::Ret(val)))
            }
            other => Err(self.error(format!("unknown statement `{other}`"))),
        }
    }

    fn parse_effect(&mut self) -> Result<ExtEffect, ParseError> {
        let e = self.expect_ident()?;
        match e.as_str() {
            "pure" => Ok(ExtEffect::Pure),
            "readonly" => Ok(ExtEffect::ReadOnly),
            "opaque" => Ok(ExtEffect::Opaque),
            other => Err(self.error(format!("unknown effect `{other}`"))),
        }
    }

    fn parse_function(&mut self) -> Result<Function, ParseError> {
        let name = self.expect_str()?;
        let params = self.expect_kv_count("params")?;
        let regs = self.expect_kv_count("regs")?;
        let slots = self.expect_kv_int_list("slots")?;
        self.expect_punct('{')?;
        let mut func = Function::new(name, params);
        func.reg_count = regs;
        for cells in slots {
            func.add_slot(self.count(cells, "slot cells")?);
        }
        func.blocks.clear();
        // blocks: `bbN:` then lines until next `bbN:` or `}`
        loop {
            if self.eat_punct('}')? {
                break;
            }
            let label = self.expect_ident()?;
            let n = self.parse_id_with_prefix(&label, "bb")?;
            if n as usize != func.blocks.len() {
                return Err(self.error(format!(
                    "block label bb{n} out of order (expected bb{})",
                    func.blocks.len()
                )));
            }
            self.expect_punct(':')?;
            let bid = func.add_block();
            loop {
                // End of block: next token is `}` or a `bbN` label followed
                // by `:` — detect via terminator presence instead: a block
                // ends right after its terminator line.
                if func.block(bid).term.is_some() {
                    break;
                }
                match self.parse_line()? {
                    Line::Inst(i) => func.block_mut(bid).insts.push(i),
                    Line::Term(t) => func.block_mut(bid).term = Some(t),
                }
            }
        }
        Ok(func)
    }
}

enum Line {
    Inst(Inst),
    Term(Terminator),
}

/// Parses a module from its textual form.
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending line on malformed input.
///
/// # Examples
///
/// ```
/// let text = r#"
/// module "m" {
///   heap_sites 0
///   global "g" cells=2 init=[5]
///   func "f" params=1 regs=2 slots=[] {
///   bb0:
///     r1 = load g0[0]
///     ret r1
///   }
/// }
/// "#;
/// let m = encore_ir::parse_module(text)?;
/// assert_eq!(m.funcs.len(), 1);
/// # Ok::<(), encore_ir::ParseError>(())
/// ```
pub fn parse_module(src: &str) -> Result<Module, ParseError> {
    let mut p = Parser::new(src)?;
    p.expect_keyword("module")?;
    let name = p.expect_str()?;
    p.expect_punct('{')?;
    let mut module = Module::new(name);
    p.expect_keyword("heap_sites")?;
    let heap_sites = p.expect_int()?;
    module.heap_sites = p.count(heap_sites, "heap_sites")?;
    loop {
        match p.peek() {
            Some(Tok::Punct('}')) => {
                p.advance()?;
                break;
            }
            Some(Tok::Ident(kw)) if kw == "global" => {
                p.advance()?;
                let name = p.expect_str()?;
                let cells = p.expect_kv_count("cells")?;
                let init = p.expect_kv_int_list("init")?;
                module.add_global_init(name, cells, init);
            }
            Some(Tok::Ident(kw)) if kw == "func" => {
                p.advance()?;
                let f = p.parse_function()?;
                module.add_func(f);
            }
            other => return Err(p.error(format!("expected `global`, `func` or `}}`, found {other:?}"))),
        }
    }
    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::verify::verify_module;

    fn roundtrip(m: &Module) {
        let text = m.to_string();
        let parsed = parse_module(&text).unwrap_or_else(|e| panic!("parse failed: {e}\n{text}"));
        assert_eq!(&parsed, m, "round-trip mismatch for:\n{text}");
    }

    #[test]
    fn roundtrip_simple() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global_init("tbl", 8, vec![3, 1, 4]);
        mb.function("f", 2, |f| {
            let a = f.param(0);
            let b = f.param(1);
            let s = f.bin(BinOp::Add, a.into(), b.into());
            let v = f.load(AddrExpr::indexed(MemBase::Global(g), s, 1, 0));
            f.store(AddrExpr::global(g, 0), v.into());
            f.ret(Some(v.into()));
        });
        roundtrip(&mb.finish());
    }

    #[test]
    fn roundtrip_control_flow() {
        let mut mb = ModuleBuilder::new("m");
        mb.function("f", 1, |f| {
            let p = f.param(0);
            let acc = f.mov(Operand::ImmI(0));
            f.for_range(Operand::ImmI(0), p.into(), |f, i| {
                f.if_else(
                    i.into(),
                    |f| f.bin_to(acc, BinOp::Add, acc.into(), i.into()),
                    |f| f.bin_to(acc, BinOp::Sub, acc.into(), Operand::ImmI(1)),
                );
            });
            f.ret(Some(acc.into()));
        });
        roundtrip(&mb.finish());
    }

    #[test]
    fn roundtrip_calls_and_instrumentation() {
        let mut mb = ModuleBuilder::new("m");
        let leaf = mb.function("leaf", 1, |f| {
            let p = f.param(0);
            f.ret(Some(p.into()));
        });
        mb.function("main", 0, |f| {
            f.emit(Inst::SetRecovery { region: RegionId::new(0) });
            let s = f.slot(4);
            f.emit(Inst::CheckpointMem { addr: AddrExpr::slot(s, 1) });
            let r = f.call(leaf, &[Operand::ImmI(5)]);
            f.emit(Inst::CheckpointReg { reg: r });
            let x = f.call_ext("sin", &[Operand::ImmF(1.5)], ExtEffect::Pure);
            f.emit(Inst::Restore { region: RegionId::new(0) });
            let h = f.alloc(Operand::ImmI(16));
            f.store(AddrExpr::reg(h, 0), x.into());
            f.ret(None);
        });
        roundtrip(&mb.finish());
    }

    #[test]
    fn roundtrip_float_immediates() {
        let mut mb = ModuleBuilder::new("m");
        mb.function("f", 0, |f| {
            let a = f.mov(Operand::ImmF(3.25));
            let b = f.bin(BinOp::FMul, a.into(), Operand::ImmF(-0.5));
            f.ret(Some(b.into()));
        });
        roundtrip(&mb.finish());
    }

    #[test]
    fn parse_error_has_line() {
        let text = "module \"m\" {\n  heap_sites 0\n  bogus\n}";
        let err = parse_module(text).unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn counts_that_do_not_fit_a_u32_are_parse_errors() {
        let module = |heap: &str, cells: &str, params: &str, regs: &str, slot: &str| {
            format!(
                "module \"m\" {{\n  heap_sites {heap}\n  global \"g\" cells={cells} init=[]\n  \
                 func \"f\" params={params} regs={regs} slots=[{slot}] {{\n  \
                 bb0:\n    ret\n  }}\n}}"
            )
        };
        assert!(parse_module(&module("0", "1", "0", "1", "1")).is_ok());
        let huge = "9223372036854775807";
        for (text, what) in [
            (module(huge, "1", "0", "1", "1"), "heap_sites"),
            (module("0", huge, "0", "1", "1"), "cells"),
            (module("0", "-1", "0", "1", "1"), "cells"),
            (module("0", "1", "4294967296", "1", "1"), "params"),
            (module("0", "1", "0", huge, "1"), "regs"),
            (module("0", "1", "0", "1", huge), "slot cells"),
        ] {
            let err = parse_module(&text).unwrap_err();
            assert!(err.message.starts_with(what), "{what}: {err}");
            assert!(err.message.ends_with("does not fit in a u32"), "{what}: {err}");
        }
    }

    #[test]
    fn parsed_module_verifies() {
        let text = r#"
module "m" {
  heap_sites 1
  global "g" cells=4 init=[]
  func "f" params=1 regs=3 slots=[2] {
  bb0:
    r1 = alloc h0, 4
    store [r1][0], r0
    r2 = load g0[r0*1+0]
    br r2, bb1, bb2
  bb1:
    ret r2
  bb2:
    ret
  }
}
"#;
        let m = parse_module(text).expect("parses");
        verify_module(&m).expect("verifies");
        roundtrip(&m);
    }

    use crate::addr::MemBase;
}
