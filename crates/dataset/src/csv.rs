//! CSV reading and writing for datasets.
//!
//! A small, dependency-free implementation of the CSV the experiments read
//! and write.  [`parse_csv`] accepts exactly this grammar:
//!
//! * **Records.**  The text is cut into records at every `\n` outside a
//!   quoted field, so a quoted field may span lines (LF or CRLF, kept
//!   verbatim).  A record's line ending — `\n`, `\r\n` or the end of the
//!   input — and one `\r` before it are not part of the record.
//! * **Blank lines.**  A record that is empty once its line ending and that
//!   `\r` are gone is skipped, before the header as anywhere else.
//! * **Fields.**  Fields are separated by `,`.  A `"` opens quoting wherever
//!   it stands in a field — one inside a bare field toggles quoting too, so
//!   `a"b,c"d` is the one field `ab,cd` — and inside quotes `""` is a
//!   literal `"` and a lone `"` closes.  Every other byte is literal: `\r`,
//!   `\n` and NUL inside quotes, all but `,`, `"` and `\n` outside them.  A
//!   UTF-8 byte-order mark is not special: it is part of the first name.
//! * **Header.**  The first record names the attributes, which must be
//!   distinct; every later record has as many fields.
//!
//! Malformed input is a typed [`CsvError`], never a panic; its line is the
//! 1-based physical line on which the offending record starts.  [`to_csv`]
//! writes text this grammar reads back as the same dataset: a field is
//! quoted when it holds `,`, `"`, `\r` or `\n`, or when it is its record's
//! only field and empty (bare, the record would be a blank line).
//!
//! Reading is one byte-level scan: a field without a `"` is interned
//! straight from its slice of the input, a quoted one is unescaped into one
//! reused buffer first, and no string is allocated per cell.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::dataset::Dataset;
use crate::schema::Schema;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// Errors raised while parsing CSV content.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file had no header row.
    MissingHeader,
    /// Two attributes of the header share a name.
    DuplicateAttribute {
        /// 1-based line number on which the header starts.
        line: usize,
        /// The name listed twice.
        name: String,
    },
    /// A record had a different number of fields than the header.
    RaggedRow {
        /// 1-based line number on which the offending record starts.
        line: usize,
        /// Number of fields expected (header width).
        expected: usize,
        /// Number of fields found.
        actual: usize,
    },
    /// A quoted field was never closed.
    UnterminatedQuote {
        /// 1-based line number on which the record holding the field starts.
        line: usize,
    },
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "I/O error: {e}"),
            CsvError::MissingHeader => write!(f, "CSV input has no header row"),
            CsvError::DuplicateAttribute { line, name } => {
                write!(f, "line {line}: duplicate attribute name {name:?}")
            }
            CsvError::RaggedRow {
                line,
                expected,
                actual,
            } => {
                write!(f, "line {line}: expected {expected} fields, found {actual}")
            }
            CsvError::UnterminatedQuote { line } => {
                write!(f, "line {line}: unterminated quoted field")
            }
        }
    }
}

impl std::error::Error for CsvError {}

impl From<io::Error> for CsvError {
    fn from(e: io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Where a bare run of field bytes stops: a separator, a quote or a line end.
fn bare_run(bytes: &[u8]) -> usize {
    let stop = |&b: &u8| b == b',' || b == b'"' || b == b'\n';
    bytes.iter().position(stop).unwrap_or(bytes.len())
}

/// How many of `bytes`' last bytes, at most `max`, are `\r`.
fn trailing_crs(bytes: &[u8], max: usize) -> usize {
    bytes
        .iter()
        .rev()
        .take(max)
        .take_while(|&&b| b == b'\r')
        .count()
}

/// The record scanner behind [`parse_csv`]: a cursor over the input that
/// hands out one record's fields at a time, as slices of the input where
/// they hold no `"` and as the unescaped contents of one reused buffer where
/// they do.
struct Scanner<'t> {
    text: &'t str,
    /// Byte offset of the next unread byte.
    pos: usize,
    /// 1-based physical line of `pos`.
    line: usize,
    /// The current quoted field, unescaped.
    unquoted: String,
}

impl<'t> Scanner<'t> {
    fn new(text: &'t str) -> Self {
        Scanner {
            text,
            pos: 0,
            line: 1,
            unquoted: String::new(),
        }
    }

    /// Skip blank lines, then scan one record, handing its fields to `field`
    /// in order.  Returns the physical line the record starts on, or `None`
    /// at the end of the input.
    fn record(&mut self, mut field: impl FnMut(&str)) -> Result<Option<usize>, CsvError> {
        let (text, bytes) = (self.text, self.text.as_bytes());
        self.skip_blank_lines();
        if self.pos == bytes.len() {
            return Ok(None);
        }
        let line = self.line;
        loop {
            let start = self.pos;
            let mut end = start + bare_run(&bytes[start..]);
            let quoted = bytes.get(end) == Some(&b'"');
            if quoted {
                end = self.unquote(start, end, line)?;
            }
            // The field ends its record unless a `,` follows, and the line
            // ending — `\n`, `\r\n` or the end — takes one more `\r` with it.
            let (last, crs) = match bytes.get(end) {
                Some(b',') => (false, 0),
                Some(_) => (true, trailing_crs(&bytes[start..end], 2)),
                None => (true, trailing_crs(&bytes[start..end], 1)),
            };
            if quoted {
                let len = self.unquoted.len().saturating_sub(crs);
                self.unquoted.truncate(len);
                field(&self.unquoted);
            } else {
                field(&text[start..end - crs]);
            }
            self.pos = (end + 1).min(bytes.len());
            if last {
                self.line += usize::from(end < bytes.len());
                return Ok(Some(line));
            }
        }
    }

    /// Unescape the field that starts at `start` and has its first `"` at
    /// `quote` into `self.unquoted`, returning the offset of the `,`, `\n`
    /// or end of input that ends it.  `line` is the record's first line.
    fn unquote(&mut self, start: usize, mut quote: usize, line: usize) -> Result<usize, CsvError> {
        let (text, bytes) = (self.text, self.text.as_bytes());
        self.unquoted.clear();
        self.unquoted.push_str(&text[start..quote]);
        loop {
            // Inside quotes from `quote + 1`: copy up to the closing `"`,
            // keeping each `""` as one `"`.
            let mut from = quote + 1;
            loop {
                let Some(close) = bytes[from..].iter().position(|&b| b == b'"') else {
                    return Err(CsvError::UnterminatedQuote { line });
                };
                let run = &text[from..from + close];
                self.line += run.bytes().filter(|&b| b == b'\n').count();
                self.unquoted.push_str(run);
                from += close + 1;
                if bytes.get(from) != Some(&b'"') {
                    break;
                }
                self.unquoted.push('"');
                from += 1;
            }
            // Outside quotes again, up to the next separator, quote or line end.
            let end = from + bare_run(&bytes[from..]);
            self.unquoted.push_str(&text[from..end]);
            if bytes.get(end) != Some(&b'"') {
                return Ok(end);
            }
            quote = end;
        }
    }

    /// Step over every blank line at the cursor: nothing but a line ending
    /// and at most one more `\r`.
    fn skip_blank_lines(&mut self) {
        loop {
            let rest = &self.text.as_bytes()[self.pos..];
            let crs = rest.iter().take_while(|&&b| b == b'\r').count();
            match rest.get(crs) {
                Some(b'\n') if crs <= 2 => {
                    self.pos += crs + 1;
                    self.line += 1;
                }
                None if crs <= 1 => {
                    self.pos += crs;
                    return;
                }
                _ => return,
            }
        }
    }
}

/// Append one record to `out`: its fields, quoted where reading them back
/// needs it, joined by `,` and ended by `\n`.
fn write_record<'a>(out: &mut String, lone: bool, fields: impl Iterator<Item = &'a str>) {
    for (i, field) in fields.enumerate() {
        if i > 0 {
            out.push(',');
        }
        // A `\r` is quoted so that a trailing one survives the line-ending
        // strip; a lone empty field so that its record is not a blank line.
        if field.contains([',', '"', '\n', '\r']) || (lone && field.is_empty()) {
            out.push('"');
            for c in field.chars() {
                if c == '"' {
                    out.push('"');
                }
                out.push(c);
            }
            out.push('"');
        } else {
            out.push_str(field);
        }
    }
    out.push('\n');
}

/// Parse CSV text (header + records) into a [`Dataset`], by the grammar in
/// the [module docs](self).  Values are interned in order of first
/// appearance, row by row.
pub fn parse_csv(text: &str) -> Result<Dataset, CsvError> {
    let mut scanner = Scanner::new(text);
    let mut names = Vec::new();
    let header = scanner.record(|name| names.push(name.to_owned()))?;
    let line = header.ok_or(CsvError::MissingHeader)?;
    let schema =
        Schema::from_names(names).map_err(|name| CsvError::DuplicateAttribute { line, name })?;
    let mut ds = Dataset::new(schema);
    let mut row = Vec::new();
    while let Some(line) = scanner.record(|field| row.push(ds.intern(field)))? {
        ds.push_row_ids(&row).map_err(|arity| CsvError::RaggedRow {
            line,
            expected: arity.expected,
            actual: arity.actual,
        })?;
        row.clear();
    }
    Ok(ds)
}

/// Serialize a dataset to CSV text (header + records).
pub fn to_csv(ds: &Dataset) -> String {
    let mut out = String::new();
    let schema = ds.schema();
    let lone = schema.arity() == 1;
    write_record(&mut out, lone, schema.attr_names());
    for t in ds.tuple_ids() {
        write_record(&mut out, lone, schema.attr_ids().map(|a| ds.value(t, a)));
    }
    out
}

/// Read a dataset from a CSV file.
pub fn read_csv_file<P: AsRef<Path>>(path: P) -> Result<Dataset, CsvError> {
    let text = fs::read_to_string(path)?;
    parse_csv(&text)
}

/// Write a dataset to a CSV file.
pub fn write_csv_file<P: AsRef<Path>>(ds: &Dataset, path: P) -> Result<(), CsvError> {
    let mut file = fs::File::create(path)?;
    file.write_all(to_csv(ds).as_bytes())?;
    Ok(())
}

#[cfg(test)]
mod reference {
    //! The char-at-a-time parser `parse_csv` replaced, kept as the
    //! differential oracle.  One change: a duplicate header name is the
    //! typed error instead of a panic in `Schema::new`.
    use super::CsvError;
    use crate::dataset::Dataset;
    use crate::schema::Schema;

    /// Split one CSV record into fields, honouring double-quote quoting.  A
    /// trailing `\r` is stripped before parsing.
    fn parse_record(line: &str, line_no: usize) -> Result<Vec<String>, CsvError> {
        let line = line.strip_suffix('\r').unwrap_or(line);
        let mut fields = Vec::new();
        let mut field = String::new();
        let mut chars = line.chars().peekable();
        let mut in_quotes = false;

        while let Some(c) = chars.next() {
            if in_quotes {
                match c {
                    '"' => {
                        if chars.peek() == Some(&'"') {
                            chars.next();
                            field.push('"');
                        } else {
                            in_quotes = false;
                        }
                    }
                    other => field.push(other),
                }
            } else {
                match c {
                    '"' => in_quotes = true,
                    ',' => {
                        fields.push(std::mem::take(&mut field));
                    }
                    other => field.push(other),
                }
            }
        }
        if in_quotes {
            return Err(CsvError::UnterminatedQuote { line: line_no });
        }
        fields.push(field);
        Ok(fields)
    }

    /// Parse CSV text line by line; a quoted field cannot span lines.
    pub fn parse(text: &str) -> Result<Dataset, CsvError> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.is_empty() && *l != "\r");
        let (header_no, header_line) = lines.next().ok_or(CsvError::MissingHeader)?;
        let header = parse_record(header_line, header_no + 1)?;
        let schema =
            Schema::from_names(header.clone()).map_err(|name| CsvError::DuplicateAttribute {
                line: header_no + 1,
                name,
            })?;
        let mut ds = Dataset::new(schema);
        for (idx, line) in lines {
            let record = parse_record(line, idx + 1)?;
            if record.len() != header.len() {
                return Err(CsvError::RaggedRow {
                    line: idx + 1,
                    expected: header.len(),
                    actual: record.len(),
                });
            }
            ds.push_row(record).expect("arity checked above");
        }
        Ok(ds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::sample_hospital_dataset;
    use crate::{AttrId, TupleId};

    #[test]
    fn round_trip_sample() {
        let ds = sample_hospital_dataset();
        let text = to_csv(&ds);
        let back = parse_csv(&text).unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    fn quoting_round_trip() {
        let mut ds = Dataset::new(Schema::new(&["name", "note"]));
        ds.push_row(vec!["St. Mary's, Inc".into(), "said \"hello\"".into()])
            .unwrap();
        ds.push_row(vec!["plain".into(), "".into()]).unwrap();
        // A value ending in '\r' must be quoted on write, or the CRLF
        // stripping on re-parse would silently eat it.
        ds.push_row(vec!["trailing\r".into(), "\r".into()]).unwrap();
        let text = to_csv(&ds);
        let back = parse_csv(&text).unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    fn crlf_line_endings_are_accepted() {
        // Regression: the splitter used to leave a trailing '\r' in the last
        // field of Windows-authored files.
        let ds = parse_csv("HN,CT\r\nALABAMA,DOTHAN\r\nELIZA,BOAZ\r\n").unwrap();
        assert_eq!(ds.len(), 2);
        let ct = ds.schema().attr_id("CT").unwrap();
        assert_eq!(ds.value(crate::TupleId(0), ct), "DOTHAN");
        assert_eq!(ds.value(crate::TupleId(1), ct), "BOAZ");
        // The parsed dataset is identical to its LF-authored twin.
        let lf = parse_csv("HN,CT\nALABAMA,DOTHAN\nELIZA,BOAZ\n").unwrap();
        assert_eq!(ds, lf);
    }

    #[test]
    fn missing_header_is_an_error() {
        assert!(matches!(parse_csv(""), Err(CsvError::MissingHeader)));
    }

    #[test]
    fn ragged_rows_are_rejected() {
        let err = parse_csv("a,b\n1,2\n3\n").unwrap_err();
        match err {
            CsvError::RaggedRow {
                line,
                expected,
                actual,
            } => {
                assert_eq!((line, expected, actual), (3, 2, 1));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unterminated_quote_is_rejected() {
        assert!(matches!(
            parse_csv("a,b\n\"oops,2\n"),
            Err(CsvError::UnterminatedQuote { .. })
        ));
    }

    #[test]
    fn file_round_trip() {
        let ds = sample_hospital_dataset();
        let dir = std::env::temp_dir().join("mlnclean-csv-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.csv");
        write_csv_file(&ds, &path).unwrap();
        let back = read_csv_file(&path).unwrap();
        assert_eq!(ds, back);
    }

    /// The dataset's attribute names, pool (in id order) and cells (as ids),
    /// or the error's variant with its fields and its line — what "the same
    /// parse" means.
    type Outcome = Result<(Vec<String>, Vec<String>, Vec<Vec<crate::ValueId>>), (String, usize)>;

    fn outcome(parsed: Result<Dataset, CsvError>) -> Outcome {
        match parsed {
            Ok(ds) => Ok((
                ds.schema().attr_names().map(str::to_owned).collect(),
                ds.pool().iter().map(|(_, v)| v.to_owned()).collect(),
                ds.columns,
            )),
            Err(e) => Err(match e {
                CsvError::Io(e) => (format!("Io {e}"), 0),
                CsvError::MissingHeader => ("MissingHeader".into(), 0),
                CsvError::DuplicateAttribute { line, name } => {
                    (format!("DuplicateAttribute {name}"), line)
                }
                CsvError::RaggedRow {
                    line,
                    expected,
                    actual,
                } => (format!("RaggedRow {expected} {actual}"), line),
                CsvError::UnterminatedQuote { line } => ("UnterminatedQuote".into(), line),
            }),
        }
    }

    #[test]
    fn a_duplicate_header_is_a_typed_error() {
        let err = parse_csv("a,a\n1,2\n").unwrap_err();
        assert_eq!(outcome(Err(err)), Err(("DuplicateAttribute a".into(), 1)));
        // The line is the header's own, after the blank lines before it.
        let err = parse_csv("\r\n\nx,\"y\",\"x\"\n1,2,3\n").unwrap_err();
        assert_eq!(err.to_string(), "line 3: duplicate attribute name \"x\"");
    }

    #[test]
    fn a_value_holding_a_newline_round_trips() {
        let mut ds = Dataset::new(Schema::new(&["a", "b"]));
        ds.push_row(vec!["one\ntwo".into(), "crlf\r\nkept".into()])
            .unwrap();
        ds.push_row(vec!["\n".into(), "".into()]).unwrap();
        let text = to_csv(&ds);
        assert_eq!(text, "a,b\n\"one\ntwo\",\"crlf\r\nkept\"\n\"\n\",\n");
        assert_eq!(parse_csv(&text).unwrap(), ds);
    }

    #[test]
    fn a_lone_empty_field_round_trips() {
        let mut ds = Dataset::new(Schema::new(&["a"]));
        for value in ["", "q", ""] {
            ds.push_row(vec![value.into()]).unwrap();
        }
        let text = to_csv(&ds);
        assert_eq!(text, "a\n\"\"\nq\n\"\"\n");
        let back = parse_csv(&text).unwrap();
        assert_eq!((back.len(), back), (3, ds));
        // An empty header name is quoted alike.
        let unnamed = Dataset::new(Schema::new(&[""]));
        assert_eq!(parse_csv(&to_csv(&unnamed)).unwrap(), unnamed);
    }

    #[test]
    fn to_csv_then_parse_csv_is_the_identity() {
        let mut rng = Rng::labelled(concat!(
            module_path!(),
            "::to_csv_then_parse_csv_is_the_identity"
        ));
        for _ in 0..64 {
            let arity = 1 + rng.below(4);
            // Four names; `below(1)` is 0, and its draw keeps the cases this
            // property has always sampled.
            let header = (0..4 + rng.below(1))
                .map(|_| (0..rng.below(4)).map(|_| rng.below(9)).collect::<Vec<_>>())
                .collect::<Vec<_>>();
            let cells = (0..rng.below(81))
                .map(|_| (0..rng.below(4)).map(|_| rng.below(9)).collect::<Vec<_>>())
                .collect::<Vec<_>>();
            // Values are 0–3 pieces each, so the empty string is common.
            const PIECES: [&str; 9] = [",", "\"", "\r", "\n", "\0", "é", "日", "x", " "];
            let value = |pieces: &Vec<usize>| pieces.iter().map(|&p| PIECES[p]).collect::<String>();
            // Digits never occur in a value, so a digit prefix keeps names distinct.
            let names: Vec<String> = header[..arity]
                .iter()
                .enumerate()
                .map(|(i, pieces)| {
                    if i == 0 {
                        value(pieces)
                    } else {
                        format!("{i}{}", value(pieces))
                    }
                })
                .collect();
            let mut ds = Dataset::new(Schema::new(&names));
            for row in cells.chunks_exact(arity).take(20) {
                ds.push_row(row.iter().map(value).collect()).unwrap();
            }
            let back = parse_csv(&to_csv(&ds)).unwrap();
            assert_eq!(back.len(), ds.len());
            assert_eq!(back, ds);
        }
    }

    /// A random CSV text over a small alphabet of values: bare and quoted
    /// fields, stray quotes inside bare fields, `""`, quoted `,`, `\r` and
    /// newlines, LF and CRLF endings with extra `\r`s, blank lines, trailing
    /// commas, ragged records, unterminated quotes and a missing final
    /// newline.
    fn random_csv(rng: &mut Rng) -> String {
        const BARE: [&str; 6] = ["a", "b", "é", "\0", " ", "\r"];
        const QUOTED: [&str; 6] = [
            "\"",
            "\"\"",
            "\"x,y\"",
            "\"q\"\"t\"",
            "\"p\nq\"",
            "\"\r\n\"",
        ];
        const BLANK: [&str; 4] = ["", "\r", "\r\r", "\r\r\r"];
        const ENDINGS: [&str; 3] = ["\n", "\r\n", "\r\r\n"];
        let arity = 1 + rng.below(3);
        let mut text = String::new();
        for _ in 0..rng.below(7) {
            if rng.below(6) == 0 {
                text.push_str(BLANK[rng.below(BLANK.len())]);
            } else {
                let ragged = rng.below(8) == 0;
                let fields = if ragged { rng.below(arity + 2) } else { arity };
                for f in 0..fields {
                    if f > 0 {
                        text.push(',');
                    }
                    for _ in 0..rng.below(4) {
                        text.push_str(if rng.below(6) == 0 {
                            QUOTED[rng.below(QUOTED.len())]
                        } else {
                            BARE[rng.below(BARE.len())]
                        });
                    }
                }
            }
            text.push_str(ENDINGS[rng.below(ENDINGS.len())]);
        }
        if rng.below(3) == 0 {
            text.pop();
        }
        text
    }

    /// Stands in for a quoted newline, so the line-at-a-time reference can
    /// read a text the scanner reads across lines; never generated.
    const MASK: char = '\u{1}';

    /// `text` with every `\n` inside quotes replaced by [`MASK`], and the
    /// physical line each line of the masked text starts on.
    fn mask_quoted_newlines(text: &str) -> (String, Vec<usize>) {
        let (mut masked, mut starts) = (String::new(), vec![1]);
        let (mut quoted, mut physical) = (false, 1);
        for c in text.chars() {
            quoted ^= c == '"';
            physical += usize::from(c == '\n');
            if c == '\n' && quoted {
                masked.push(MASK);
            } else {
                masked.push(c);
                if c == '\n' {
                    starts.push(physical);
                }
            }
        }
        (masked, starts)
    }

    /// The reference's outcome on the masked text, mapped back: masks become
    /// newlines again and lines become physical lines.
    fn unmasked(outcome: Outcome, starts: &[usize]) -> Outcome {
        let unmask = |values: Vec<String>| -> Vec<String> {
            let newline = |v: String| v.replace(MASK, "\n");
            values.into_iter().map(newline).collect()
        };
        match outcome {
            Ok((names, pool, columns)) => Ok((unmask(names), unmask(pool), columns)),
            Err((error, 0)) => Err((error, 0)),
            Err((error, line)) => Err((error.replace(MASK, "\n"), starts[line - 1])),
        }
    }

    /// The scanner reads every random text as the reference reads it.  A
    /// text with a quoted newline — which the reference, reading a line at a
    /// time, cannot parse — is compared through [`mask_quoted_newlines`].
    #[test]
    fn parse_csv_matches_the_reference_parser_on_random_texts() {
        let mut rng = Rng::seeded(29);
        let mut seen = std::collections::BTreeMap::new();
        for case in 0..4000 {
            let text = random_csv(&mut rng);
            let (masked, starts) = mask_quoted_newlines(&text);
            let actual = outcome(parse_csv(&text));
            let expected = unmasked(outcome(reference::parse(&masked)), &starts);
            assert_eq!(actual, expected, "case {case}: {text:?}");
            let kind = match &actual {
                Ok(_) if masked != text => "Ok across lines",
                Ok(_) => "Ok",
                Err((error, _)) => error.split(' ').next().unwrap(),
            };
            *seen.entry(kind.to_owned()).or_insert(0) += 1;
        }
        // Every outcome is exercised, and parses with and without a quoted
        // newline both.
        let kinds = [
            "Ok",
            "Ok across lines",
            "DuplicateAttribute",
            "MissingHeader",
            "RaggedRow",
            "UnterminatedQuote",
        ];
        for kind in kinds {
            assert!(seen.get(kind).is_some_and(|&n| n > 200), "{seen:?}");
        }
    }

    #[test]
    fn hostile_inputs_end_in_a_typed_outcome() {
        // Embedded NULs are plain bytes, bare or quoted.
        let ds = parse_csv("a\0,b\n\0,\"x\0\"\n").unwrap();
        assert_eq!(ds.schema().attr_name(AttrId(0)), "a\0");
        assert_eq!(ds.value(TupleId(0), AttrId(1)), "x\0");

        // A 1 MiB field, bare and quoted with escapes.
        let long = "x".repeat(1 << 20);
        let quoted = format!("a,b\n{long},\"{}\"\n", "\"\"".repeat(1 << 19));
        let ds = parse_csv(&quoted).unwrap();
        assert_eq!(ds.value(TupleId(0), AttrId(0)), long);
        assert_eq!(ds.value(TupleId(0), AttrId(1)), "\"".repeat(1 << 19));

        // A 10 000-field record under a 2-field header.
        let wide = format!("a,b\n{}\n", vec!["v"; 10_000].join(","));
        assert_eq!(
            outcome(parse_csv(&wide)),
            Err(("RaggedRow 2 10000".into(), 2))
        );

        // An unterminated quote at the end of the input, after a record whose
        // quoted field spans lines: the line is the one its record starts on.
        let open = "a,b\n\"x\ny\",z\n\"oops\nmore";
        assert_eq!(
            outcome(parse_csv(open)),
            Err(("UnterminatedQuote".into(), 4))
        );
        let short = "a,b\n1,2\n\"x\r\ny\"\n";
        assert_eq!(outcome(parse_csv(short)), Err(("RaggedRow 2 1".into(), 3)));

        // A UTF-8 byte-order mark is part of the first attribute's name.
        let ds = parse_csv("\u{feff}a,b\n1,2\n").unwrap();
        assert_eq!(ds.schema().attr_name(AttrId(0)), "\u{feff}a");
        assert_eq!(ds.schema().attr_id("a"), None);
        assert_eq!(ds.len(), 1);
    }
}
