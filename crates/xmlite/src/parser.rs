//! Hand-written recursive-descent XML parser.

use crate::dtd::Dtd;
use crate::escape::unescape;
use crate::node::{Document, Element, Node};
use std::fmt;

/// Parse failure with line/column information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub column: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XML error at {}:{}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Deepest nesting of elements a document may have, the document element
/// counting as 1 (libxml2's long-standing default). Parsing, validation,
/// serialization and the tree's drop all recurse once per level, so the
/// limit bounds their stack instead of letting a deep file overflow it.
pub(crate) const MAX_DEPTH: usize = 256;

/// Parse an XML document from `src`.
pub fn parse(src: &str) -> Result<Document, ParseError> {
    let mut p = P {
        chars: src.chars().collect(),
        pos: 0,
        depth: 0,
    };
    p.skip_misc()?;
    let dtd = p.maybe_doctype()?;
    p.skip_misc()?;
    let root = p.element()?;
    p.skip_misc()?;
    if p.pos < p.chars.len() {
        return Err(p.err("content after document element"));
    }
    Ok(Document { root, dtd })
}

struct P {
    chars: Vec<char>,
    pos: usize,
    /// Elements open at `pos`.
    depth: usize,
}

impl P {
    fn err(&self, msg: &str) -> ParseError {
        let mut line = 1;
        let mut col = 1;
        for &c in &self.chars[..self.pos.min(self.chars.len())] {
            if c == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        ParseError {
            message: msg.to_string(),
            line,
            column: col,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn starts_with(&self, s: &str) -> bool {
        s.chars()
            .enumerate()
            .all(|(i, c)| self.chars.get(self.pos + i) == Some(&c))
    }

    fn eat_str(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            self.pos += s.chars().count();
            true
        } else {
            false
        }
    }

    fn expect_str(&mut self, s: &str) -> Result<(), ParseError> {
        if self.eat_str(s) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{s}'")))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.pos += 1;
        }
    }

    /// Skip whitespace, prolog, processing instructions and comments that may
    /// appear outside the document element.
    fn skip_misc(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.scan_until("?>")?;
            } else if self.starts_with("<!--") {
                self.scan_until("-->")?;
            } else {
                return Ok(());
            }
        }
    }

    /// Advance past `end`, returning the content in between.
    fn scan_until(&mut self, end: &str) -> Result<String, ParseError> {
        let mut content = String::new();
        while self.pos < self.chars.len() {
            if self.starts_with(end) {
                self.pos += end.chars().count();
                return Ok(content);
            }
            content.push(self.chars[self.pos]);
            self.pos += 1;
        }
        Err(self.err(&format!("unterminated construct, expected '{end}'")))
    }

    fn maybe_doctype(&mut self) -> Result<Option<Dtd>, ParseError> {
        if !self.starts_with("<!DOCTYPE") {
            return Ok(None);
        }
        self.pos += "<!DOCTYPE".chars().count();
        // Scan the doctype; an internal subset is delimited by [ ... ].
        let mut internal = String::new();
        let mut depth = 0usize;
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated <!DOCTYPE")),
                Some('[') => depth += 1,
                Some(']') => depth = depth.saturating_sub(1),
                Some('>') if depth == 0 => break,
                Some(c) if depth > 0 => internal.push(c),
                Some(_) => {}
            }
        }
        if internal.trim().is_empty() {
            Ok(None)
        } else {
            Dtd::parse(&internal).map(Some).map_err(|m| self.err(&m))
        }
    }

    fn name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_alphanumeric() || "_-.:".contains(c)) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(self.chars[start..self.pos].iter().collect())
    }

    fn element(&mut self) -> Result<Element, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("elements nest deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let el = self.element_content();
        self.depth -= 1;
        el
    }

    /// An element from its start tag to its close tag.
    fn element_content(&mut self) -> Result<Element, ParseError> {
        self.expect_str("<")?;
        let name = self.name()?;
        let mut el = Element::new(&name);

        loop {
            self.skip_ws();
            match self.peek() {
                Some('/') => {
                    self.expect_str("/>")?;
                    return Ok(el);
                }
                Some('>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let (k, v) = self.attribute()?;
                    if el.attr(&k).is_some() {
                        return Err(self.err(&format!("duplicate attribute '{k}'")));
                    }
                    el.attributes.push((k, v));
                }
                None => return Err(self.err("unterminated start tag")),
            }
        }

        // Content until matching close tag.
        loop {
            if self.starts_with("</") {
                self.pos += 2;
                let close = self.name()?;
                if close != name {
                    return Err(self.err(&format!(
                        "mismatched close tag: expected </{name}>, found </{close}>"
                    )));
                }
                self.skip_ws();
                self.expect_str(">")?;
                return Ok(el);
            } else if self.starts_with("<!--") {
                self.pos += 4;
                let c = self.scan_until("-->")?;
                el.children.push(Node::Comment(c));
            } else if self.starts_with("<![CDATA[") {
                self.pos += 9;
                let c = self.scan_until("]]>")?;
                el.children.push(Node::Text(c));
            } else if self.starts_with("<?") {
                self.scan_until("?>")?;
            } else if self.starts_with("<") {
                el.children.push(Node::Element(self.element()?));
            } else if self.peek().is_none() {
                return Err(self.err(&format!("unexpected end of input inside <{name}>")));
            } else {
                let mut text = String::new();
                while let Some(c) = self.peek() {
                    if c == '<' {
                        break;
                    }
                    text.push(c);
                    self.pos += 1;
                }
                // Whitespace-only text is insignificant in perfbase control
                // files; dropping it makes parse∘serialize idempotent.
                if !text.trim().is_empty() {
                    el.children.push(Node::Text(unescape(&text)));
                }
            }
        }
    }

    fn attribute(&mut self) -> Result<(String, String), ParseError> {
        let key = self.name()?;
        self.skip_ws();
        self.expect_str("=")?;
        self.skip_ws();
        let quote = match self.bump() {
            Some(q @ ('"' | '\'')) => q,
            _ => return Err(self.err("attribute value must be quoted")),
        };
        let mut value = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated attribute value")),
                Some(c) if c == quote => break,
                Some('<') => return Err(self.err("'<' not allowed in attribute value")),
                Some(c) => value.push(c),
            }
        }
        Ok((key, unescape(&value)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_document() {
        let doc = parse("<a/>").unwrap();
        assert_eq!(doc.root.name, "a");
        assert!(doc.root.children.is_empty());
    }

    #[test]
    fn attributes_both_quote_styles() {
        let doc = parse(r#"<a x="1" y='two'/>"#).unwrap();
        assert_eq!(doc.root.attr("x"), Some("1"));
        assert_eq!(doc.root.attr("y"), Some("two"));
    }

    #[test]
    fn nested_elements_and_text() {
        let doc = parse("<a><b>hi</b><b>ho</b></a>").unwrap();
        let bs: Vec<_> = doc.root.children_named("b").collect();
        assert_eq!(bs.len(), 2);
        assert_eq!(bs[0].text(), "hi");
        assert_eq!(bs[1].text(), "ho");
    }

    #[test]
    fn prolog_and_pi_skipped() {
        let doc = parse("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<?pi data?><a/>").unwrap();
        assert_eq!(doc.root.name, "a");
    }

    #[test]
    fn doctype_without_subset() {
        let doc = parse("<!DOCTYPE experiment SYSTEM \"pb.dtd\"><experiment/>").unwrap();
        assert!(doc.dtd.is_none());
    }

    #[test]
    fn doctype_with_internal_subset() {
        let src = r#"<!DOCTYPE a [
            <!ELEMENT a (b*)>
            <!ELEMENT b (#PCDATA)>
        ]><a><b>x</b></a>"#;
        let doc = parse(src).unwrap();
        let dtd = doc.dtd.as_ref().expect("internal subset parsed");
        assert!(dtd.element("a").is_some());
        assert!(dtd.element("b").is_some());
    }

    #[test]
    fn error_reporting_has_position() {
        let err = parse("<a>\n  <b></c>\n</a>").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("mismatched"));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("").is_err());
        assert!(parse("<a>").is_err());
        assert!(parse("<a x=1/>").is_err());
        assert!(parse("<a x=\"1\" x=\"2\"/>").is_err());
        assert!(parse("<a/><b/>").is_err());
        assert!(parse("text only").is_err());
    }

    #[test]
    fn whitespace_only_text_dropped_at_element_start() {
        let doc = parse("<a>\n  <b/>\n</a>").unwrap();
        assert_eq!(doc.root.elements().count(), 1);
    }

    #[test]
    fn nesting_is_refused_past_the_limit() {
        let nested = |depth: usize| format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!((err.line, err.column), (1, 3 * MAX_DEPTH + 1));
        assert!(err.message.contains("nest"), "{}", err.message);
        // Deep enough to overflow the stack of a recursive descent.
        let err = parse(&nested(100_000)).unwrap_err();
        assert_eq!((err.line, err.column), (1, 3 * MAX_DEPTH + 1));
    }

    #[test]
    fn names_with_punctuation() {
        let doc = parse("<performed_by><org.unit x-id='1'/></performed_by>").unwrap();
        assert_eq!(doc.root.child("org.unit").unwrap().attr("x-id"), Some("1"));
    }
}
