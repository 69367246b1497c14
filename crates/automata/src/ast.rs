//! Regex abstract syntax and the hand-written recursive-descent parser.

use std::sync::{Arc, OnceLock};

use crate::{Dfa, ETX, STX};

/// A set of ASCII bytes (0..128), stored as a 128-bit bitmap.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ByteClass {
    bits: [u64; 2],
}

impl ByteClass {
    /// The empty class.
    pub const EMPTY: ByteClass = ByteClass { bits: [0, 0] };

    /// A class containing a single byte.
    pub fn single(b: u8) -> Self {
        let mut c = Self::EMPTY;
        c.insert(b);
        c
    }

    /// Adds a byte to the class. Panics for non-ASCII bytes.
    pub fn insert(&mut self, b: u8) {
        assert!(b < 128, "ByteClass only covers ASCII");
        self.bits[(b / 64) as usize] |= 1 << (b % 64);
    }

    /// Adds the inclusive byte range `[lo, hi]`.
    pub fn insert_range(&mut self, lo: u8, hi: u8) {
        for b in lo..=hi {
            self.insert(b);
        }
    }

    /// Whether the class contains `b`.
    pub fn contains(&self, b: u8) -> bool {
        b < 128 && self.bits[(b / 64) as usize] & (1 << (b % 64)) != 0
    }

    /// The complement **within the printable subject alphabet**, i.e. all
    /// ASCII bytes except control characters; sentinels stay excluded so
    /// `[^x]` and `.` never consume the start/end markers.
    pub fn negated_printable(&self) -> ByteClass {
        let mut c = Self::EMPTY;
        for b in 0x20..0x7f {
            if !self.contains(b) {
                c.insert(b);
            }
        }
        c
    }

    /// Every byte of the class, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        (0u8..128).filter(|&b| self.contains(b))
    }

    /// The class `.` matches: any printable character (not sentinels).
    pub fn dot() -> ByteClass {
        let mut c = Self::EMPTY;
        c.insert_range(0x20, 0x7e);
        c
    }

    /// The Cisco `_` delimiter class: whitespace, punctuation delimiters,
    /// and the start/end sentinels.
    pub fn delimiter() -> ByteClass {
        let mut c = Self::EMPTY;
        for b in [b' ', b',', b'{', b'}', b'(', b')', STX, ETX] {
            c.insert(b);
        }
        c
    }

    /// The class matching any byte at all, sentinels included (used for the
    /// implicit `.*` padding that implements substring search).
    pub fn any_with_sentinels() -> ByteClass {
        let mut c = Self::dot();
        c.insert(STX);
        c.insert(ETX);
        c
    }
}

impl std::fmt::Debug for ByteClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for b in self.iter() {
            match b {
                STX => write!(f, "^")?,
                ETX => write!(f, "$")?,
                b => write!(f, "{}", b as char)?,
            }
        }
        write!(f, "]")
    }
}

/// Regex syntax tree. `Concat`/`Alt` keep vectors to avoid deep recursion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Ast {
    /// Matches nothing. Kept for algebraic completeness of the AST even
    /// though the surface syntax cannot express it.
    #[allow(dead_code)]
    Empty,
    /// Matches the empty string.
    Epsilon,
    /// Matches one byte from the class.
    Class(ByteClass),
    Concat(Vec<Ast>),
    Alt(Vec<Ast>),
    Star(Box<Ast>),
    Plus(Box<Ast>),
    Opt(Box<Ast>),
}

/// Parse failure with a byte offset into the pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegexError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the original pattern where the error was noticed.
    pub position: usize,
}

impl std::fmt::Display for RegexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "regex error at offset {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for RegexError {}

/// A parsed Cisco-style regular expression.
///
/// The original pattern text is retained for display and round-tripping;
/// the compiled DFA is cached on first use ([`Regex::dfa`]) and shared by
/// every clone, so a pattern is compiled once however often the
/// configuration holding it is copied.
#[derive(Clone, Debug)]
pub struct Regex {
    pub(crate) ast: Ast,
    pattern: String,
    compiled: Arc<OnceLock<Dfa>>,
}

impl PartialEq for Regex {
    fn eq(&self, other: &Self) -> bool {
        // The cache is derived state; equality is syntactic.
        self.ast == other.ast && self.pattern == other.pattern
    }
}

impl Eq for Regex {}

impl Regex {
    /// Parses a Cisco-style pattern.
    ///
    /// Supported syntax: literals, `.`, `_`, `^`, `$`, `[...]` / `[^...]`
    /// classes with ranges, grouping `(...)`, alternation `|`, and the
    /// `*` / `+` / `?` quantifiers. Backslash escapes the next character.
    pub fn parse(pattern: &str) -> Result<Regex, RegexError> {
        let mut p = Parser {
            bytes: pattern.as_bytes(),
            pos: 0,
        };
        let ast = p.alternation()?;
        if p.pos != p.bytes.len() {
            return Err(RegexError {
                message: format!("unexpected character '{}'", p.bytes[p.pos] as char),
                position: p.pos,
            });
        }
        Ok(Regex {
            ast,
            pattern: pattern.to_string(),
            compiled: Arc::default(),
        })
    }

    /// The original pattern text.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Compiles to a minimized DFA with Cisco *substring* semantics:
    /// the automaton accepts any subject containing a match, where subjects
    /// are wrapped in the `STX`/`ETX` sentinels by [`crate::Dfa::matches`].
    ///
    /// The language is intersected with the *well-formed subject* language
    /// `STX · printable* · ETX`, so set operations between compiled DFAs
    /// (intersection, difference, atom construction) reason about genuine
    /// subjects only — never about byte strings with stray sentinels.
    pub fn to_dfa(&self) -> Dfa {
        static WELL_FORMED: OnceLock<Dfa> = OnceLock::new();
        let well_formed = WELL_FORMED.get_or_init(|| {
            crate::dfa::compile(&Ast::Concat(vec![
                Ast::Class(ByteClass::single(STX)),
                Ast::Star(Box::new(Ast::Class(ByteClass::dot()))),
                Ast::Class(ByteClass::single(ETX)),
            ]))
        });
        let pad = Ast::Star(Box::new(Ast::Class(ByteClass::any_with_sentinels())));
        let wrapped = Ast::Concat(vec![pad.clone(), self.ast.clone(), pad]);
        crate::dfa::compile(&wrapped).intersect(well_formed)
    }

    /// The compiled DFA, built on first use and cached for the lifetime of
    /// this `Regex` and its clones. Prefer this over [`Regex::to_dfa`]
    /// anywhere matching happens repeatedly (evaluation loops,
    /// simulations, atom construction).
    pub fn dfa(&self) -> &Dfa {
        self.compiled.get_or_init(|| self.to_dfa())
    }

    /// Convenience: Cisco-style match of `text` against this regex.
    pub fn matches(&self, text: &str) -> bool {
        self.dfa().matches(text)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn err(&self, message: impl Into<String>) -> RegexError {
        RegexError {
            message: message.into(),
            position: self.pos,
        }
    }

    fn alternation(&mut self) -> Result<Ast, RegexError> {
        let mut alts = vec![self.concat()?];
        while self.peek() == Some(b'|') {
            self.bump();
            alts.push(self.concat()?);
        }
        Ok(if alts.len() == 1 {
            alts.pop().expect("one element")
        } else {
            Ast::Alt(alts)
        })
    }

    fn concat(&mut self) -> Result<Ast, RegexError> {
        let mut items = Vec::new();
        while let Some(b) = self.peek() {
            if b == b'|' || b == b')' {
                break;
            }
            items.push(self.repeat()?);
        }
        Ok(match items.len() {
            0 => Ast::Epsilon,
            1 => items.pop().expect("one element"),
            _ => Ast::Concat(items),
        })
    }

    fn repeat(&mut self) -> Result<Ast, RegexError> {
        let mut atom = self.atom()?;
        loop {
            match self.peek() {
                Some(b'*') => {
                    self.bump();
                    atom = Ast::Star(Box::new(atom));
                }
                Some(b'+') => {
                    self.bump();
                    atom = Ast::Plus(Box::new(atom));
                }
                Some(b'?') => {
                    self.bump();
                    atom = Ast::Opt(Box::new(atom));
                }
                _ => return Ok(atom),
            }
        }
    }

    fn atom(&mut self) -> Result<Ast, RegexError> {
        match self.bump() {
            None => Err(self.err("unexpected end of pattern")),
            Some(b'(') => {
                let inner = self.alternation()?;
                if self.bump() != Some(b')') {
                    return Err(self.err("unclosed group"));
                }
                Ok(inner)
            }
            Some(b'[') => self.class(),
            Some(b'.') => Ok(Ast::Class(ByteClass::dot())),
            Some(b'_') => Ok(Ast::Class(ByteClass::delimiter())),
            Some(b'^') => Ok(Ast::Class(ByteClass::single(STX))),
            Some(b'$') => Ok(Ast::Class(ByteClass::single(ETX))),
            Some(b'\\') => match self.bump() {
                None => Err(self.err("dangling escape")),
                Some(c) if c < 128 => Ok(Ast::Class(ByteClass::single(c))),
                Some(_) => Err(self.err("non-ASCII escape")),
            },
            Some(b) if b < 128 && !b"*+?)".contains(&b) => Ok(Ast::Class(ByteClass::single(b))),
            Some(b) => Err(RegexError {
                message: format!("unexpected character '{}'", b as char),
                position: self.pos - 1,
            }),
        }
    }

    fn class(&mut self) -> Result<Ast, RegexError> {
        let negated = if self.peek() == Some(b'^') {
            self.bump();
            true
        } else {
            false
        };
        let mut cls = ByteClass::EMPTY;
        let mut first = true;
        loop {
            match self.bump() {
                None => return Err(self.err("unclosed character class")),
                Some(b']') if !first => break,
                Some(b) => {
                    let b = if b == b'\\' {
                        self.bump().ok_or_else(|| self.err("dangling escape"))?
                    } else {
                        b
                    };
                    if b >= 128 {
                        return Err(self.err("non-ASCII byte in class"));
                    }
                    // Range like a-z (a '-' just before ']' is a literal).
                    if self.peek() == Some(b'-') && self.bytes.get(self.pos + 1) != Some(&b']') {
                        self.bump();
                        let hi = self.bump().ok_or_else(|| self.err("unfinished range"))?;
                        if hi >= 128 || hi < b {
                            return Err(self.err("invalid range"));
                        }
                        cls.insert_range(b, hi);
                    } else {
                        cls.insert(b);
                    }
                }
            }
            first = false;
        }
        Ok(Ast::Class(if negated {
            cls.negated_printable()
        } else {
            cls
        }))
    }
}
