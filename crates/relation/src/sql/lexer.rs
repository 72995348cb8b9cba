//! A small SQL lexer.

use crate::error::{RelationError, Result};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or identifier (uppercased check happens in the parser).
    Ident(String),
    /// Numeric literal.
    Number(String),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    StringLit(String),
    /// `,`
    Comma,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// Comparison operator: `=`, `<`, `<=`, `>`, `>=`, `<>`, `!=`.
    Op(String),
}

impl Token {
    /// True if this token is the given keyword (case-insensitive).
    pub fn is_keyword(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// Tokenises a SQL string.
pub fn lex(input: &str) -> Result<Vec<Token>> {
    let mut tokens = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_whitespace() => i += 1,
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            '.' => {
                tokens.push(Token::Dot);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            ';' => i += 1,
            '\'' => {
                // Quotes are ASCII, so every quote byte sits on a char
                // boundary: the literal is copied as UTF-8 slices between
                // them, never byte by byte.
                let mut s = String::new();
                i += 1;
                let mut start = i;
                let mut closed = false;
                while i < bytes.len() {
                    if bytes[i] == b'\'' {
                        s.push_str(&input[start..i]);
                        if bytes.get(i + 1) == Some(&b'\'') {
                            s.push('\'');
                            i += 2;
                            start = i;
                            continue;
                        }
                        closed = true;
                        i += 1;
                        break;
                    }
                    i += 1;
                }
                if !closed {
                    return Err(RelationError::Parse("unterminated string literal".into()));
                }
                tokens.push(Token::StringLit(s));
            }
            '=' => {
                tokens.push(Token::Op("=".into()));
                i += 1;
            }
            '<' | '>' | '!' => {
                let mut op = String::new();
                op.push(c);
                if i + 1 < bytes.len() {
                    let next = bytes[i + 1] as char;
                    if next == '=' || (c == '<' && next == '>') {
                        op.push(next);
                        i += 1;
                    }
                }
                if op == "!" {
                    return Err(RelationError::Parse("unexpected '!'".into()));
                }
                tokens.push(Token::Op(op));
                i += 1;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_digit()
                        || bytes[i] as char == '.'
                        || bytes[i] as char == '-' && i == start)
                {
                    // A '.' followed by a non-digit ends the number (covers
                    // `t1.c` style qualified names starting with digits, which
                    // we do not generate anyway).
                    if bytes[i] as char == '.'
                        && (i + 1 >= bytes.len() || !(bytes[i + 1] as char).is_ascii_digit())
                    {
                        break;
                    }
                    i += 1;
                }
                tokens.push(Token::Number(input[start..i].to_string()));
            }
            '-' if i + 1 < bytes.len() && (bytes[i + 1] as char).is_ascii_digit() => {
                let start = i;
                i += 1;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_digit() || bytes[i] as char == '.')
                {
                    i += 1;
                }
                tokens.push(Token::Number(input[start..i].to_string()));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] as char == '_')
                {
                    i += 1;
                }
                tokens.push(Token::Ident(input[start..i].to_string()));
            }
            _ => {
                let other = input[i..].chars().next().unwrap_or(c);
                return Err(RelationError::Parse(format!(
                    "unexpected character {other:?} at byte {i}"
                )));
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_a_simple_select() {
        let toks = lex("SELECT * FROM parties WHERE id = 1").unwrap();
        assert_eq!(toks.len(), 8);
        assert!(toks[0].is_keyword("select"));
        assert_eq!(toks[1], Token::Star);
        assert_eq!(toks[6], Token::Op("=".into()));
        assert_eq!(toks[7], Token::Number("1".into()));
    }

    #[test]
    fn lexes_strings_with_escaped_quotes() {
        let toks = lex("name = 'O''Brien'").unwrap();
        assert_eq!(toks[2], Token::StringLit("O'Brien".into()));
    }

    #[test]
    fn lexes_non_ascii_string_literals_intact() {
        let toks = lex("city = 'Zürich'").unwrap();
        assert_eq!(toks[2], Token::StringLit("Zürich".into()));
        let toks = lex("name = 'Müller''s 日本 😀'").unwrap();
        assert_eq!(toks[2], Token::StringLit("Müller's 日本 😀".into()));
    }

    #[test]
    fn lexes_comparison_operators() {
        let toks = lex("a >= 1 AND b <> 2 AND c != 3 AND d <= 4").unwrap();
        let ops: Vec<_> = toks
            .iter()
            .filter_map(|t| match t {
                Token::Op(o) => Some(o.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(ops, vec![">=", "<>", "!=", "<="]);
    }

    #[test]
    fn lexes_qualified_names_and_floats() {
        let toks = lex("parties.id = 3.5").unwrap();
        assert_eq!(toks[0], Token::Ident("parties".into()));
        assert_eq!(toks[1], Token::Dot);
        assert_eq!(toks[4], Token::Number("3.5".into()));
    }

    #[test]
    fn negative_numbers_after_operator() {
        let toks = lex("salary >= -100").unwrap();
        assert_eq!(toks[2], Token::Number("-100".into()));
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(lex("name = 'oops").is_err());
    }

    #[test]
    fn unexpected_character_is_an_error() {
        assert!(lex("a = #").is_err());
        let err = lex("a = é").unwrap_err().to_string();
        assert!(err.contains("'é'"), "{err}");
    }
}
