//! Plain-text TSV persistence for citation networks.
//!
//! Two-file format mirroring how the paper's datasets (KDD-cup hep-th, APS,
//! PMC, DBLP) are conventionally distributed:
//!
//! * **papers file** — one line per paper:
//!   `id⟨TAB⟩year⟨TAB⟩venue⟨TAB⟩author,author,…`
//!   where `venue` is an integer id or `-` and the author list may be empty;
//! * **citations file** — one line per edge: `citing_id⟨TAB⟩cited_id`.
//!
//! Lines starting with `#` are comments. Ids in the file are arbitrary
//! `u32`s; loading remaps them into the canonical time-sorted id space via
//! [`crate::NetworkBuilder`], so round-tripping normalizes order.
//!
//! The parser is deliberately tolerant of the files as they circulate in
//! the wild: `\r\n` line endings, blank lines, and leading/trailing
//! whitespace around lines and fields are all accepted. Every rejection —
//! malformed field, duplicate id, unknown or temporally inconsistent edge —
//! reports the 1-based line number of the offending line.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

use crate::builder::NetworkBuilder;
use crate::network::CitationNetwork;

/// Errors produced by the TSV loaders.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// A malformed line, with 1-based line number and description.
    Parse {
        /// 1-based line number within the offending file.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// The edge list referenced an id absent from the papers file, or the
    /// builder rejected the network (temporal violation etc.).
    Invalid(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, message } => write!(f, "line {line}: {message}"),
            IoError::Invalid(m) => write!(f, "invalid network: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Streams the papers table as TSV into `w`, one line at a time.
///
/// This is the memory-bounded export path: nothing larger than a single
/// line is buffered here, so wrapping `w` in an [`io::BufWriter`] (as
/// [`save`] does) bounds peak memory by the writer's buffer rather than
/// the whole corpus.
pub fn write_papers_tsv<W: Write>(net: &CitationNetwork, w: &mut W) -> io::Result<()> {
    writeln!(w, "# id\tyear\tvenue\tauthors")?;
    for p in 0..net.n_papers() as u32 {
        write!(w, "{p}\t{}\t", net.year(p))?;
        match net.venues().and_then(|v| v.venue_of(p)) {
            Some(v) => write!(w, "{v}")?,
            None => w.write_all(b"-")?,
        }
        w.write_all(b"\t")?;
        if let Some(a) = net.authors() {
            for (i, author) in a.authors_of(p).iter().enumerate() {
                if i > 0 {
                    w.write_all(b",")?;
                }
                write!(w, "{author}")?;
            }
        }
        w.write_all(b"\n")?;
    }
    Ok(())
}

/// Streams the edge list as TSV into `w` (memory-bounded like
/// [`write_papers_tsv`]).
pub fn write_citations_tsv<W: Write>(net: &CitationNetwork, w: &mut W) -> io::Result<()> {
    writeln!(w, "# citing\tcited")?;
    for citing in 0..net.n_papers() as u32 {
        for &cited in net.references(citing) {
            writeln!(w, "{citing}\t{cited}")?;
        }
    }
    Ok(())
}

/// Serializes the papers table to an in-memory TSV string (convenience
/// over [`write_papers_tsv`]; prefer the streaming form for large graphs).
pub fn papers_to_tsv(net: &CitationNetwork) -> String {
    let mut out = Vec::new();
    write_papers_tsv(net, &mut out).expect("in-memory write");
    String::from_utf8(out).expect("TSV output is ASCII")
}

/// Serializes the edge list to an in-memory TSV string (convenience over
/// [`write_citations_tsv`]).
pub fn citations_to_tsv(net: &CitationNetwork) -> String {
    let mut out = Vec::new();
    write_citations_tsv(net, &mut out).expect("in-memory write");
    String::from_utf8(out).expect("TSV output is ASCII")
}

/// Parses the two TSV documents into a network.
pub fn from_tsv(papers: &str, citations: &str) -> Result<CitationNetwork, IoError> {
    let mut builder = NetworkBuilder::new();
    let mut id_map: HashMap<u32, u32> = HashMap::new();

    for (lineno, line) in papers.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split('\t');
        let id: u32 = parse_field(fields.next(), lineno + 1, "id")?;
        let year: i32 = parse_field(fields.next(), lineno + 1, "year")?;
        let venue_raw = fields.next().unwrap_or("-").trim();
        let venue = if venue_raw == "-" || venue_raw.is_empty() {
            None
        } else {
            Some(venue_raw.parse().map_err(|_| IoError::Parse {
                line: lineno + 1,
                message: format!("bad venue id {venue_raw:?}"),
            })?)
        };
        let authors_raw = fields.next().unwrap_or("").trim();
        let authors = if authors_raw.is_empty() {
            Vec::new()
        } else {
            authors_raw
                .split(',')
                .map(|a| {
                    a.trim().parse().map_err(|_| IoError::Parse {
                        line: lineno + 1,
                        message: format!("bad author id {a:?}"),
                    })
                })
                .collect::<Result<Vec<u32>, _>>()?
        };
        if id_map.contains_key(&id) {
            return Err(IoError::Parse {
                line: lineno + 1,
                message: format!("duplicate paper id {id}"),
            });
        }
        let internal = if authors.is_empty() && venue.is_none() {
            builder.add_paper(year)
        } else {
            builder.add_paper_with_metadata(year, authors, venue)
        };
        id_map.insert(id, internal);
    }

    for (lineno, line) in citations.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let at_line = |message: String| IoError::Parse {
            line: lineno + 1,
            message,
        };
        let mut fields = line.split('\t');
        let citing_ext: u32 = parse_field(fields.next(), lineno + 1, "citing id")?;
        let cited_ext: u32 = parse_field(fields.next(), lineno + 1, "cited id")?;
        let &citing = id_map
            .get(&citing_ext)
            .ok_or_else(|| at_line(format!("citation from unknown paper {citing_ext}")))?;
        let &cited = id_map
            .get(&cited_ext)
            .ok_or_else(|| at_line(format!("citation to unknown paper {cited_ext}")))?;
        // The builder's temporal check only fires at build(), where line
        // numbers are gone — check here so the error points at the edge.
        let year = |id| builder.year(id).expect("mapped ids are added papers");
        let (citing_year, cited_year) = (year(citing), year(cited));
        if cited_year > citing_year {
            return Err(at_line(format!(
                "paper {citing_ext} ({citing_year}) cites paper {cited_ext} \
                 published later ({cited_year})"
            )));
        }
        builder
            .add_citation(citing, cited)
            .map_err(|e| at_line(e.to_string()))?;
    }

    builder.build().map_err(|e| IoError::Invalid(e.to_string()))
}

fn parse_field<T: std::str::FromStr>(
    field: Option<&str>,
    line: usize,
    what: &str,
) -> Result<T, IoError> {
    let raw = field.ok_or_else(|| IoError::Parse {
        line,
        message: format!("missing {what}"),
    })?;
    raw.trim().parse().map_err(|_| IoError::Parse {
        line,
        message: format!("bad {what}: {raw:?}"),
    })
}

/// Writes a network to `<stem>.papers.tsv` and `<stem>.citations.tsv`.
///
/// Output is streamed through a buffered writer — exporting a
/// multi-million-edge corpus never materializes the document in memory.
pub fn save<P: AsRef<Path>>(net: &CitationNetwork, stem: P) -> Result<(), IoError> {
    let stem = stem.as_ref();
    let mut papers = io::BufWriter::new(fs::File::create(with_suffix(stem, ".papers.tsv"))?);
    write_papers_tsv(net, &mut papers)?;
    papers.flush()?;
    let mut citations = io::BufWriter::new(fs::File::create(with_suffix(stem, ".citations.tsv"))?);
    write_citations_tsv(net, &mut citations)?;
    citations.flush()?;
    Ok(())
}

/// Loads a network previously written by [`save`].
pub fn load<P: AsRef<Path>>(stem: P) -> Result<CitationNetwork, IoError> {
    let stem = stem.as_ref();
    let papers = fs::read_to_string(with_suffix(stem, ".papers.tsv"))?;
    let citations = fs::read_to_string(with_suffix(stem, ".citations.tsv"))?;
    from_tsv(&papers, &citations)
}

fn with_suffix(stem: &Path, suffix: &str) -> std::path::PathBuf {
    let mut s = stem.as_os_str().to_os_string();
    s.push(suffix);
    s.into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;

    fn sample() -> CitationNetwork {
        let mut b = NetworkBuilder::new();
        let p0 = b.add_paper_with_metadata(1999, vec![0, 2], Some(1));
        let p1 = b.add_paper_with_metadata(2001, vec![1], None);
        let p2 = b.add_paper_with_metadata(2003, vec![0], Some(0));
        b.add_citation(p1, p0).unwrap();
        b.add_citation(p2, p0).unwrap();
        b.add_citation(p2, p1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let net = sample();
        let papers = papers_to_tsv(&net);
        let citations = citations_to_tsv(&net);
        let back = from_tsv(&papers, &citations).unwrap();
        assert_eq!(back.n_papers(), net.n_papers());
        assert_eq!(back.n_citations(), net.n_citations());
        assert_eq!(back.years(), net.years());
        for p in 0..net.n_papers() as u32 {
            assert_eq!(back.references(p), net.references(p));
            assert_eq!(
                back.authors().unwrap().authors_of(p),
                net.authors().unwrap().authors_of(p)
            );
            assert_eq!(
                back.venues().unwrap().venue_of(p),
                net.venues().unwrap().venue_of(p)
            );
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("citegraph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("net");
        let net = sample();
        save(&net, &stem).unwrap();
        let back = load(&stem).unwrap();
        assert_eq!(back.n_papers(), 3);
        assert_eq!(back.n_citations(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let papers = "# header\n\n0\t2000\t-\t\n1\t2001\t-\t\n";
        let citations = "# header\n\n1\t0\n";
        let net = from_tsv(papers, citations).unwrap();
        assert_eq!(net.n_papers(), 2);
        assert_eq!(net.n_citations(), 1);
        assert!(net.authors().is_none());
    }

    #[test]
    fn duplicate_paper_id_rejected() {
        let papers = "0\t2000\t-\t\n0\t2001\t-\t\n";
        let err = from_tsv(papers, "").unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn unknown_citation_target_rejected_with_line() {
        let papers = "0\t2000\t-\t\n";
        let err = from_tsv(papers, "# header\n0\t7\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown paper 7"), "{msg}");
        assert!(msg.contains("line 2"), "{msg}");
    }

    #[test]
    fn bad_year_rejected_with_line_number() {
        let papers = "0\tTWOTHOUSAND\t-\t\n";
        let err = from_tsv(papers, "").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 1"), "{msg}");
        assert!(msg.contains("year"), "{msg}");
    }

    #[test]
    fn temporal_violation_rejected_with_line() {
        let papers = "0\t2005\t-\t\n1\t2000\t-\t\n";
        // paper 1 (2000) is cited BY nothing; paper 0 (2005) cited by 1 → future citation
        let err = from_tsv(papers, "1\t0\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("published later"), "{msg}");
        assert!(msg.contains("line 1"), "{msg}");
        // External ids (not remapped internal ones) appear in the message.
        let err = from_tsv("10\t2005\t-\t\n20\t2000\t-\t\n", "\n20\t10\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("20") && msg.contains("10"), "{msg}");
        assert!(msg.contains("line 2"), "{msg}");
    }

    #[test]
    fn self_citation_rejected_with_line() {
        let err = from_tsv("0\t2000\t-\t\n", "0\t0\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("cites itself"), "{msg}");
        assert!(msg.contains("line 1"), "{msg}");
    }

    #[test]
    fn crlf_line_endings_accepted() {
        let papers = "# header\r\n0\t2000\t-\t\r\n1\t2001\t0\t3,4\r\n";
        let citations = "# header\r\n1\t0\r\n";
        let net = from_tsv(papers, citations).unwrap();
        assert_eq!(net.n_papers(), 2);
        assert_eq!(net.n_citations(), 1);
        assert_eq!(net.venues().unwrap().venue_of(1), Some(0));
        assert_eq!(net.authors().unwrap().authors_of(1), &[3, 4]);
    }

    #[test]
    fn trailing_whitespace_accepted() {
        let papers = "0\t2000\t-\t  \n 1 \t 2001 \t 0 \t 3 , 4 \n";
        let citations = " 1 \t 0  \n";
        let net = from_tsv(papers, citations).unwrap();
        assert_eq!(net.n_papers(), 2);
        assert_eq!(net.n_citations(), 1);
        assert_eq!(net.authors().unwrap().authors_of(1), &[3, 4]);
    }

    #[test]
    fn duplicate_id_reports_offending_line() {
        // Line 1 is a comment, line 3 repeats the id from line 2.
        let papers = "# header\n7\t2000\t-\t\n7\t2001\t-\t\n";
        let err = from_tsv(papers, "").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 3"), "{msg}");
        assert!(msg.contains("duplicate paper id 7"), "{msg}");
    }

    #[test]
    fn missing_fields_report_line_and_field() {
        let err = from_tsv("0\n", "").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 1"), "{msg}");
        assert!(msg.contains("year"), "{msg}");

        let err = from_tsv("0\t2000\t-\t\n", "0\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 1"), "{msg}");
        assert!(msg.contains("cited id"), "{msg}");
    }

    #[test]
    fn bad_venue_reports_line() {
        let err = from_tsv("0\t2000\tMAIN\t\n", "").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 1"), "{msg}");
        assert!(msg.contains("venue"), "{msg}");
    }

    #[test]
    fn bad_author_reports_line() {
        let err = from_tsv("# x\n0\t2000\t-\talice\n", "").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains("author"), "{msg}");
    }

    #[test]
    fn bad_citing_id_reports_line() {
        let err = from_tsv("0\t2000\t-\t\n", "x\t0\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 1"), "{msg}");
        assert!(msg.contains("citing id"), "{msg}");
    }

    #[test]
    fn streaming_writers_match_string_serializers() {
        let net = sample();
        let mut papers = Vec::new();
        write_papers_tsv(&net, &mut papers).unwrap();
        assert_eq!(String::from_utf8(papers).unwrap(), papers_to_tsv(&net));
        let mut cites = Vec::new();
        write_citations_tsv(&net, &mut cites).unwrap();
        assert_eq!(String::from_utf8(cites).unwrap(), citations_to_tsv(&net));
    }

    #[test]
    fn noncontiguous_external_ids_remapped() {
        let papers = "100\t2000\t-\t\n5\t2001\t-\t\n";
        let citations = "5\t100\n";
        let net = from_tsv(papers, citations).unwrap();
        assert_eq!(net.n_papers(), 2);
        assert_eq!(net.citation_count(0), 1); // the 2000 paper
    }
}
