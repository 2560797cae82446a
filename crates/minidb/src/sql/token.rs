//! The lexer.
//!
//! Hand-rolled single-pass tokenizer. Keywords are recognized
//! case-insensitively but kept as [`Token::Keyword`] with an upper-cased
//! spelling; identifiers preserve their original case (resolution is
//! case-insensitive anyway). String literals use single quotes with `''`
//! escaping, as in standard SQL.

use crate::error::{DbError, DbResult};
use std::fmt;

/// Reserved words.
const KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "LIMIT", "JOIN", "ON", "AS", "AND", "OR",
    "NOT", "CREATE", "TABLE", "VIEW", "INSERT", "INTO", "VALUES", "INT", "FLOAT", "TEXT", "ASC",
    "DESC", "COUNT", "SUM", "MIN", "MAX", "AVG", "NULL", "IS",
];

/// One lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// A reserved word, upper-cased.
    Keyword(String),
    /// An identifier (original case preserved).
    Ident(String),
    /// An integer literal.
    Int(i64),
    /// A float literal.
    Float(f64),
    /// A string literal (unescaped content).
    Str(String),
    /// A punctuation/operator symbol: `( ) , . * = <> < <= > >= + - / ;`.
    Symbol(&'static str),
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Keyword(k) => write!(f, "{k}"),
            Token::Ident(i) => write!(f, "{i}"),
            Token::Int(v) => write!(f, "{v}"),
            Token::Float(v) => write!(f, "{v}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::Symbol(s) => write!(f, "{s}"),
        }
    }
}

/// Tokenizes `input`.
///
/// # Errors
/// `Parse` on unterminated strings, malformed numbers or unknown
/// characters, with byte positions in the message.
pub fn tokenize(input: &str) -> DbResult<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut i = 0;
    let mut out = Vec::new();
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_ascii_whitespace() => i += 1,
            '(' | ')' | ',' | '.' | '*' | '+' | '-' | '/' | ';' | '=' => {
                out.push(Token::Symbol(match c {
                    '(' => "(",
                    ')' => ")",
                    ',' => ",",
                    '.' => ".",
                    '*' => "*",
                    '+' => "+",
                    '-' => "-",
                    '/' => "/",
                    ';' => ";",
                    _ => "=",
                }));
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Symbol("<="));
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    out.push(Token::Symbol("<>"));
                    i += 2;
                } else {
                    out.push(Token::Symbol("<"));
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Symbol(">="));
                    i += 2;
                } else {
                    out.push(Token::Symbol(">"));
                    i += 1;
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Symbol("<>"));
                    i += 2;
                } else {
                    return Err(DbError::parse(format!("unexpected '!' at byte {i}")));
                }
            }
            '\'' => {
                let mut s = String::new();
                let start = i;
                i += 1;
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err(DbError::parse(format!(
                                "unterminated string starting at byte {start}"
                            )))
                        }
                        Some(b'\'') => {
                            if bytes.get(i + 1) == Some(&b'\'') {
                                s.push('\'');
                                i += 2;
                            } else {
                                i += 1;
                                break;
                            }
                        }
                        Some(&b) => {
                            s.push(b as char);
                            i += 1;
                        }
                    }
                }
                out.push(Token::Str(s));
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                // A '.' is part of the number only if followed by a digit —
                // `1.5` is a float, `t1.x` stays ident-dot-ident.
                if i < bytes.len()
                    && bytes[i] == b'.'
                    && i + 1 < bytes.len()
                    && (bytes[i + 1] as char).is_ascii_digit()
                {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                }
                let text = &input[start..i];
                if is_float {
                    let v: f64 = text
                        .parse()
                        .map_err(|_| DbError::parse(format!("bad float '{text}'")))?;
                    out.push(Token::Float(v));
                } else {
                    let v: i64 = text
                        .parse()
                        .map_err(|_| DbError::parse(format!("integer '{text}' out of range")))?;
                    out.push(Token::Int(v));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let word = &input[start..i];
                let upper = word.to_ascii_uppercase();
                if KEYWORDS.contains(&upper.as_str()) {
                    out.push(Token::Keyword(upper));
                } else {
                    out.push(Token::Ident(word.to_string()));
                }
            }
            other => {
                return Err(DbError::parse(format!(
                    "unexpected character '{other}' at byte {i}"
                )))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<Token> {
        tokenize(s).unwrap()
    }

    #[test]
    fn keywords_and_identifiers() {
        assert_eq!(
            toks("select Foo FROM bar"),
            vec![
                Token::Keyword("SELECT".into()),
                Token::Ident("Foo".into()),
                Token::Keyword("FROM".into()),
                Token::Ident("bar".into()),
            ]
        );
    }

    #[test]
    fn numbers_ints_and_floats() {
        assert_eq!(toks("42"), vec![Token::Int(42)]);
        assert_eq!(toks("3.25"), vec![Token::Float(3.25)]);
        // Qualified column, not a float.
        assert_eq!(
            toks("t1.x"),
            vec![
                Token::Ident("t1".into()),
                Token::Symbol("."),
                Token::Ident("x".into()),
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(toks("'abc'"), vec![Token::Str("abc".into())]);
        assert_eq!(toks("'it''s'"), vec![Token::Str("it's".into())]);
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            toks("a <= b <> c >= d != e"),
            vec![
                Token::Ident("a".into()),
                Token::Symbol("<="),
                Token::Ident("b".into()),
                Token::Symbol("<>"),
                Token::Ident("c".into()),
                Token::Symbol(">="),
                Token::Ident("d".into()),
                Token::Symbol("<>"),
                Token::Ident("e".into()),
            ]
        );
    }

    #[test]
    fn arithmetic_and_punctuation() {
        assert_eq!(
            toks("(a + b) * 2, -c"),
            vec![
                Token::Symbol("("),
                Token::Ident("a".into()),
                Token::Symbol("+"),
                Token::Ident("b".into()),
                Token::Symbol(")"),
                Token::Symbol("*"),
                Token::Int(2),
                Token::Symbol(","),
                Token::Symbol("-"),
                Token::Ident("c".into()),
            ]
        );
    }

    #[test]
    fn unknown_character_errors() {
        assert!(matches!(tokenize("a @ b"), Err(DbError::Parse(_))));
        assert!(tokenize("a ! b").is_err());
    }

    #[test]
    fn underscored_identifiers() {
        assert_eq!(toks("foo_bar_1"), vec![Token::Ident("foo_bar_1".into())]);
    }
}
