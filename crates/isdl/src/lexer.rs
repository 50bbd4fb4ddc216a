//! Hand-written lexer for ISDL source text.
//!
//! Produces a flat token stream with positions. Comments are `//` to end
//! of line and `/* ... */` (non-nesting). Integer literals may be plain
//! decimal, `0x…` hex, `0b…` binary, `0o…` octal, or Verilog-style sized
//! literals such as `8'hFF` (kept as [`Tok::Sized`]).

use crate::error::{ErrorKind, IsdlError, Pos};
use bitv::BitVector;

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword (keywords are recognized by the parser).
    Ident(String),
    /// An unsized integer literal.
    Int(u64),
    /// A sized literal such as `8'hFF`.
    Sized(BitVector),
    /// A double-quoted string (no escapes beyond `\"` and `\\`).
    Str(String),
    /// Punctuation or operator, e.g. `{`, `<-`, `>>>`.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl std::fmt::Display for Tok {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Ident(s) => write!(f, "identifier `{s}`"),
            Self::Int(v) => write!(f, "integer `{v}`"),
            Self::Sized(v) => write!(f, "sized literal `{v}`"),
            Self::Str(s) => write!(f, "string {s:?}"),
            Self::Punct(p) => write!(f, "`{p}`"),
            Self::Eof => write!(f, "end of input"),
        }
    }
}

/// A token together with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpannedTok {
    /// The token.
    pub tok: Tok,
    /// Where it starts.
    pub pos: Pos,
}

/// All multi-character punctuation, longest first so maximal munch works.
const PUNCTS: &[&str] = &[
    "<->", "<-", "<=s", "<s", ">=s", ">>>", "<<", ">>", ">s", "==", "!=", "<=", ">=", "&&", "||",
    "/s", "%s", "{", "}", "(", ")", "[", "]", ";", ",", ":", "=", "<", ">", "+", "-", "*", "/",
    "%", "&", "|", "^", "~", "!", ".", "?", "@",
];

/// Tokenizes `src` completely.
///
/// # Errors
///
/// Returns a [`IsdlError`] with [`ErrorKind::Lex`] on malformed literals,
/// unterminated strings or comments, or stray characters.
pub fn lex(src: &str) -> Result<Vec<SpannedTok>, IsdlError> {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    src: &'a [u8],
    i: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Self { src: src.as_bytes(), i: 0, line: 1, col: 1 }
    }

    fn pos(&self) -> Pos {
        Pos::new(self.line, self.col)
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.i).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.i + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.i += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn err(&self, msg: impl Into<String>) -> IsdlError {
        IsdlError::new(ErrorKind::Lex, self.pos(), msg)
    }

    fn run(mut self) -> Result<Vec<SpannedTok>, IsdlError> {
        let mut out = Vec::new();
        loop {
            self.skip_trivia()?;
            let pos = self.pos();
            let Some(c) = self.peek() else {
                out.push(SpannedTok { tok: Tok::Eof, pos });
                return Ok(out);
            };
            let tok = if c.is_ascii_alphabetic() || c == b'_' {
                self.lex_ident()
            } else if c.is_ascii_digit() {
                self.lex_number()?
            } else if c == b'"' {
                self.lex_string()?
            } else {
                self.lex_punct()?
            };
            out.push(SpannedTok { tok, pos });
        }
    }

    fn skip_trivia(&mut self) -> Result<(), IsdlError> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.bump() {
                        if c == b'\n' {
                            break;
                        }
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.pos();
                    self.bump();
                    self.bump();
                    loop {
                        match self.bump() {
                            Some(b'*') if self.peek() == Some(b'/') => {
                                self.bump();
                                break;
                            }
                            Some(_) => {}
                            None => {
                                return Err(IsdlError::new(
                                    ErrorKind::Lex,
                                    start,
                                    "unterminated block comment",
                                ))
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn lex_ident(&mut self) -> Tok {
        let start = self.i;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.bump();
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.src[start..self.i])
            .expect("identifier bytes are ASCII")
            .to_owned();
        Tok::Ident(s)
    }

    fn lex_number(&mut self) -> Result<Tok, IsdlError> {
        let start = self.i;
        // Consume leading digits.
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
        }
        // Sized literal: digits followed by a tick.
        if self.peek() == Some(b'\'') {
            self.bump(); // tick
                         // base char + digits/underscores
            while self.peek().is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_') {
                self.bump();
            }
            let text = std::str::from_utf8(&self.src[start..self.i]).expect("ASCII");
            let bv: BitVector =
                text.parse().map_err(|e| self.err(format!("bad sized literal `{text}`: {e}")))?;
            return Ok(Tok::Sized(bv));
        }
        // 0x / 0b / 0o prefixes.
        let first = self.src[start];
        if first == b'0' && self.i == start + 1 {
            if let Some(base_c) = self.peek() {
                let radix = match base_c {
                    b'x' | b'X' => Some(16),
                    b'b' | b'B' => Some(2),
                    b'o' | b'O' => Some(8),
                    _ => None,
                };
                if let Some(radix) = radix {
                    self.bump();
                    let dstart = self.i;
                    while self.peek().is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_') {
                        self.bump();
                    }
                    let digits: String = std::str::from_utf8(&self.src[dstart..self.i])
                        .expect("ASCII")
                        .chars()
                        .filter(|&c| c != '_')
                        .collect();
                    if digits.is_empty() {
                        return Err(self.err("missing digits after base prefix"));
                    }
                    let v = u64::from_str_radix(&digits, radix)
                        .map_err(|e| self.err(format!("bad integer literal: {e}")))?;
                    return Ok(Tok::Int(v));
                }
            }
        }
        // Plain decimal (allow underscores in the tail).
        while self.peek().is_some_and(|c| c.is_ascii_digit() || c == b'_') {
            self.bump();
        }
        let digits: String = std::str::from_utf8(&self.src[start..self.i])
            .expect("ASCII")
            .chars()
            .filter(|&c| c != '_')
            .collect();
        let v: u64 = digits.parse().map_err(|e| self.err(format!("bad integer literal: {e}")))?;
        Ok(Tok::Int(v))
    }

    fn lex_string(&mut self) -> Result<Tok, IsdlError> {
        let start = self.pos();
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                Some(b'"') => return Ok(Tok::Str(s)),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'n') => s.push('\n'),
                    other => return Err(self.err(format!("unsupported string escape {other:?}"))),
                },
                Some(c) => s.push(c as char),
                None => return Err(IsdlError::new(ErrorKind::Lex, start, "unterminated string")),
            }
        }
    }

    fn lex_punct(&mut self) -> Result<Tok, IsdlError> {
        let rest = &self.src[self.i..];
        for p in PUNCTS {
            if rest.starts_with(p.as_bytes()) {
                for _ in 0..p.len() {
                    self.bump();
                }
                return Ok(Tok::Punct(p));
            }
        }
        Err(self.err(format!("unexpected character {:?}", self.peek().map(|c| c as char))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).expect("lexes").into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn idents_and_ints() {
        assert_eq!(
            toks("foo 42 0xFF 0b101 0o17 1_000"),
            vec![
                Tok::Ident("foo".into()),
                Tok::Int(42),
                Tok::Int(0xFF),
                Tok::Int(0b101),
                Tok::Int(0o17),
                Tok::Int(1000),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn sized_literals() {
        assert_eq!(
            toks("8'hFF 4'b1010"),
            vec![
                Tok::Sized(BitVector::from_u64(0xFF, 8)),
                Tok::Sized(BitVector::from_u64(0b1010, 4)),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn puncts_maximal_munch() {
        assert_eq!(
            toks("<- <= < <=s >>> >> ="),
            vec![
                Tok::Punct("<-"),
                Tok::Punct("<="),
                Tok::Punct("<"),
                Tok::Punct("<=s"),
                Tok::Punct(">>>"),
                Tok::Punct(">>"),
                Tok::Punct("="),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("a // line\n b /* block\n still */ c"),
            vec![Tok::Ident("a".into()), Tok::Ident("b".into()), Tok::Ident("c".into()), Tok::Eof]
        );
    }

    #[test]
    fn strings() {
        assert_eq!(
            toks(r#""hi" "a\"b""#),
            vec![Tok::Str("hi".into()), Tok::Str("a\"b".into()), Tok::Eof]
        );
    }

    #[test]
    fn positions_track_lines() {
        let ts = lex("a\n  b").expect("lexes");
        assert_eq!(ts[0].pos, Pos::new(1, 1));
        assert_eq!(ts[1].pos, Pos::new(2, 3));
    }

    #[test]
    fn errors() {
        assert!(lex("\"unterminated").is_err());
        assert!(lex("/* unterminated").is_err());
        assert!(lex("0x").is_err());
        assert!(lex("5'q3").is_err());
        assert!(lex("`").is_err());
    }
}
