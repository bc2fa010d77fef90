//! [`MethodSpec`] — the textual configuration grammar for ranking methods.
//!
//! A spec is `name` or `name:key=value,key=value,…`:
//!
//! ```text
//! attrank:alpha=0.2,beta=0.4,y=3,w=-0.16
//! attrank:alpha=0.2,gamma=0.3          (β derived as 1−α−γ)
//! pagerank:d=0.85
//! citerank:alpha=0.31,tau=1.6
//! futurerank:alpha=0.4,beta=0.1,gamma=0.5,rho=-0.62
//! ram:gamma=0.6
//! ecm:alpha=0.1,gamma=0.3
//! hits
//! katz:alpha=0.15
//! wsdm:alpha=1.7,beta=3,iters=5
//! cc
//! ensemble:rule=rrf,k=60,members=(cc)+(pagerank:d=0.5)
//! ```
//!
//! Omitted keys take the documented per-method defaults, so `pagerank`
//! alone is valid. Parsing validates every parameter against the same
//! domain rules the method constructors assert (so the registry never
//! panics), and `Display` renders the canonical form — `parse ∘ display`
//! is the identity on every spec (round-trip tested per method).

use std::fmt;
use std::str::FromStr;

use attrank::{AttRankParams, ParamError};

/// Fusion rule of an [`MethodSpec::Ensemble`] (mirrors
/// `baselines::FusionRule`, but carries spec-level defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnsembleRule {
    /// Borda count.
    Borda,
    /// Reciprocal-rank fusion with damping constant `k`.
    Rrf {
        /// RRF damping constant (literature default 60).
        k: u32,
    },
}

/// A parsed, validated method configuration.
///
/// Every registered ranking method has one variant carrying its
/// hyper-parameters; [`crate::registry::build`] turns a spec into a
/// ready-to-run boxed [`citegraph::Ranker`].
#[derive(Debug, Clone, PartialEq)]
pub enum MethodSpec {
    /// AttRank (`γ = 1 − α − β` implied).
    AttRank {
        /// Reference-following probability `α`.
        alpha: f64,
        /// Attention probability `β`.
        beta: f64,
        /// Attention window in years.
        y: u32,
        /// Recency decay `w ≤ 0`.
        w: f64,
    },
    /// PageRank with damping `d`.
    PageRank {
        /// Damping factor in `[0, 1)`.
        d: f64,
    },
    /// CiteRank.
    CiteRank {
        /// Follow probability in `(0, 1)`.
        alpha: f64,
        /// Start-distribution decay time (years), positive.
        tau: f64,
    },
    /// FutureRank.
    FutureRank {
        /// Citation-propagation weight.
        alpha: f64,
        /// Author-reinforcement weight.
        beta: f64,
        /// Recency weight.
        gamma: f64,
        /// Age-decay exponent, non-positive.
        rho: f64,
    },
    /// Retained Adjacency Matrix.
    Ram {
        /// Age-decay base in `(0, 1)`.
        gamma: f64,
    },
    /// Effective Contagion Matrix.
    Ecm {
        /// Chain attenuation in `(0, 1)`.
        alpha: f64,
        /// Age-decay base in `(0, 1)`.
        gamma: f64,
    },
    /// HITS authorities (fixed defaults; no tunable parameters).
    Hits,
    /// Katz centrality.
    Katz {
        /// Per-hop attenuation in `(0, 1)`.
        alpha: f64,
    },
    /// WSDM-2016 cup winner.
    Wsdm {
        /// In-degree prior coefficient, non-negative.
        alpha: f64,
        /// Out-degree prior coefficient, non-negative.
        beta: f64,
        /// Reinforcement rounds, at least 1.
        iters: usize,
    },
    /// Raw citation count.
    CitationCount,
    /// Rank-fusion ensemble over nested member specs.
    Ensemble {
        /// Fusion rule.
        rule: EnsembleRule,
        /// Member methods (at least one).
        members: Vec<MethodSpec>,
    },
}

/// Why a spec string (or a programmatically built spec) was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The method name is not registered.
    UnknownMethod {
        /// The offending name.
        name: String,
    },
    /// A key the method does not accept.
    UnknownParam {
        /// Canonical method name.
        method: &'static str,
        /// The offending key.
        key: String,
    },
    /// A key given more than once.
    DuplicateParam {
        /// Canonical method name.
        method: &'static str,
        /// The repeated key.
        key: String,
    },
    /// A value that failed to parse as the expected type.
    BadValue {
        /// The parameter key.
        key: String,
        /// The unparsable text.
        value: String,
    },
    /// A parameter value outside the method's valid domain.
    InvalidParam {
        /// Canonical method name.
        method: &'static str,
        /// Human-readable constraint violation.
        message: String,
    },
    /// Malformed spec syntax (empty name, dangling `=`, unbalanced
    /// parentheses, …).
    Syntax {
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownMethod { name } => write!(f, "unknown method {name:?}"),
            SpecError::UnknownParam { method, key } => {
                write!(f, "{method} does not accept parameter {key:?}")
            }
            SpecError::DuplicateParam { method, key } => {
                write!(f, "{method} parameter {key:?} given more than once")
            }
            SpecError::BadValue { key, value } => {
                write!(f, "cannot parse {value:?} for parameter {key:?}")
            }
            SpecError::InvalidParam { method, message } => write!(f, "{method}: {message}"),
            SpecError::Syntax { message } => write!(f, "bad spec syntax: {message}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<ParamError> for SpecError {
    fn from(e: ParamError) -> Self {
        SpecError::InvalidParam {
            method: "attrank",
            message: e.to_string(),
        }
    }
}

impl MethodSpec {
    /// The canonical config-grammar name of this method.
    pub fn method_name(&self) -> &'static str {
        match self {
            MethodSpec::AttRank { .. } => "attrank",
            MethodSpec::PageRank { .. } => "pagerank",
            MethodSpec::CiteRank { .. } => "citerank",
            MethodSpec::FutureRank { .. } => "futurerank",
            MethodSpec::Ram { .. } => "ram",
            MethodSpec::Ecm { .. } => "ecm",
            MethodSpec::Hits => "hits",
            MethodSpec::Katz { .. } => "katz",
            MethodSpec::Wsdm { .. } => "wsdm",
            MethodSpec::CitationCount => "cc",
            MethodSpec::Ensemble { .. } => "ensemble",
        }
    }

    /// The damping factor `α` of methods whose fixed point is
    /// `x = α·S·x + b` on the citation stochastic operator — the family
    /// that supports seed-set personalization (swap `b` for a seed
    /// distribution and the same push solver applies). `None` for methods
    /// outside that family (HITS, Katz, ECM, WSDM, citation count,
    /// ensembles): their recurrences run on different operators, so a
    /// personalized variant is not defined for them.
    pub fn damping(&self) -> Option<f64> {
        match *self {
            MethodSpec::AttRank { alpha, .. } => Some(alpha),
            MethodSpec::PageRank { d } => Some(d),
            MethodSpec::CiteRank { alpha, .. } => Some(alpha),
            _ => None,
        }
    }

    /// Convenience constructor for a validated AttRank spec.
    pub fn attrank(alpha: f64, beta: f64, y: u32, w: f64) -> Result<Self, SpecError> {
        let spec = MethodSpec::AttRank { alpha, beta, y, w };
        spec.validate()?;
        Ok(spec)
    }

    /// Checks every parameter against its method's domain (the same rules
    /// the underlying constructors assert, surfaced as errors instead of
    /// panics).
    pub fn validate(&self) -> Result<(), SpecError> {
        fn invalid(method: &'static str, message: String) -> SpecError {
            SpecError::InvalidParam { method, message }
        }
        match *self {
            MethodSpec::AttRank { alpha, beta, y, w } => {
                AttRankParams::new(alpha, beta, y, w)?;
                // The incremental solver's push needs `I − α·S` invertible.
                if alpha >= 1.0 {
                    return Err(invalid(
                        "attrank",
                        format!("alpha = {alpha} must be below 1"),
                    ));
                }
                Ok(())
            }
            MethodSpec::PageRank { d } => {
                if !(0.0..1.0).contains(&d) {
                    return Err(invalid("pagerank", format!("d = {d} outside [0, 1)")));
                }
                Ok(())
            }
            MethodSpec::CiteRank { alpha, tau } => {
                if !(alpha > 0.0 && alpha < 1.0) {
                    return Err(invalid(
                        "citerank",
                        format!("alpha = {alpha} outside (0, 1)"),
                    ));
                }
                if tau <= 0.0 || tau.is_nan() {
                    return Err(invalid("citerank", format!("tau = {tau} must be positive")));
                }
                Ok(())
            }
            MethodSpec::FutureRank {
                alpha,
                beta,
                gamma,
                rho,
            } => {
                for (name, v) in [("alpha", alpha), ("beta", beta), ("gamma", gamma)] {
                    if !(0.0..=1.0).contains(&v) {
                        return Err(invalid(
                            "futurerank",
                            format!("{name} = {v} outside [0, 1]"),
                        ));
                    }
                }
                if alpha + beta + gamma > 1.0 + 1e-12 {
                    return Err(invalid(
                        "futurerank",
                        format!("alpha + beta + gamma = {} > 1", alpha + beta + gamma),
                    ));
                }
                if rho > 0.0 || rho.is_nan() {
                    return Err(invalid(
                        "futurerank",
                        format!("rho = {rho} must be non-positive"),
                    ));
                }
                Ok(())
            }
            MethodSpec::Ram { gamma } => {
                if !(gamma > 0.0 && gamma < 1.0) {
                    return Err(invalid("ram", format!("gamma = {gamma} outside (0, 1)")));
                }
                Ok(())
            }
            MethodSpec::Ecm { alpha, gamma } => {
                for (name, v) in [("alpha", alpha), ("gamma", gamma)] {
                    if !(v > 0.0 && v < 1.0) {
                        return Err(invalid("ecm", format!("{name} = {v} outside (0, 1)")));
                    }
                }
                Ok(())
            }
            MethodSpec::Hits | MethodSpec::CitationCount => Ok(()),
            MethodSpec::Katz { alpha } => {
                if !(alpha > 0.0 && alpha < 1.0) {
                    return Err(invalid("katz", format!("alpha = {alpha} outside (0, 1)")));
                }
                Ok(())
            }
            MethodSpec::Wsdm { alpha, beta, iters } => {
                if !(alpha >= 0.0 && beta >= 0.0) {
                    return Err(invalid(
                        "wsdm",
                        format!("coefficients alpha = {alpha}, beta = {beta} must be >= 0"),
                    ));
                }
                if iters == 0 {
                    return Err(invalid("wsdm", "iters must be at least 1".into()));
                }
                Ok(())
            }
            MethodSpec::Ensemble { rule, ref members } => {
                if members.is_empty() {
                    return Err(invalid("ensemble", "needs at least one member".into()));
                }
                if let EnsembleRule::Rrf { k } = rule {
                    if k == 0 {
                        return Err(invalid("ensemble", "rrf k must be at least 1".into()));
                    }
                }
                for m in members {
                    m.validate()?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for MethodSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MethodSpec::AttRank { alpha, beta, y, w } => {
                write!(f, "attrank:alpha={alpha},beta={beta},y={y},w={w}")
            }
            MethodSpec::PageRank { d } => write!(f, "pagerank:d={d}"),
            MethodSpec::CiteRank { alpha, tau } => write!(f, "citerank:alpha={alpha},tau={tau}"),
            MethodSpec::FutureRank {
                alpha,
                beta,
                gamma,
                rho,
            } => write!(
                f,
                "futurerank:alpha={alpha},beta={beta},gamma={gamma},rho={rho}"
            ),
            MethodSpec::Ram { gamma } => write!(f, "ram:gamma={gamma}"),
            MethodSpec::Ecm { alpha, gamma } => write!(f, "ecm:alpha={alpha},gamma={gamma}"),
            MethodSpec::Hits => write!(f, "hits"),
            MethodSpec::Katz { alpha } => write!(f, "katz:alpha={alpha}"),
            MethodSpec::Wsdm { alpha, beta, iters } => {
                write!(f, "wsdm:alpha={alpha},beta={beta},iters={iters}")
            }
            MethodSpec::CitationCount => write!(f, "cc"),
            MethodSpec::Ensemble { rule, members } => {
                match rule {
                    EnsembleRule::Borda => write!(f, "ensemble:rule=borda,members=")?,
                    EnsembleRule::Rrf { k } => write!(f, "ensemble:rule=rrf,k={k},members=")?,
                }
                for (i, m) in members.iter().enumerate() {
                    if i > 0 {
                        write!(f, "+")?;
                    }
                    write!(f, "({m})")?;
                }
                Ok(())
            }
        }
    }
}

/// Splits `s` on `sep` at parenthesis depth 0 (nested ensemble members keep
/// their commas / plus signs intact).
fn split_top_level(s: &str, sep: char) -> Result<Vec<&str>, SpecError> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth = depth.checked_sub(1).ok_or_else(|| SpecError::Syntax {
                    message: format!("unbalanced ')' in {s:?}"),
                })?;
            }
            c if c == sep && depth == 0 => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if depth != 0 {
        return Err(SpecError::Syntax {
            message: format!("unbalanced '(' in {s:?}"),
        });
    }
    parts.push(&s[start..]);
    Ok(parts)
}

/// A parsed `key=value` list with typed, consumed-key accounting: after the
/// method pulls its keys, anything left is an `UnknownParam`.
struct Params<'a> {
    method: &'static str,
    entries: Vec<(&'a str, &'a str, bool)>, // key, value, consumed
}

impl<'a> Params<'a> {
    fn parse(method: &'static str, s: Option<&'a str>) -> Result<Self, SpecError> {
        let mut entries = Vec::new();
        if let Some(s) = s {
            for part in split_top_level(s, ',')? {
                if part.is_empty() {
                    continue;
                }
                let (key, value) = part.split_once('=').ok_or_else(|| SpecError::Syntax {
                    message: format!("expected key=value, got {part:?}"),
                })?;
                entries.push((key.trim(), value.trim(), false));
            }
        }
        Ok(Self { method, entries })
    }

    fn take(&mut self, key: &str) -> Option<&'a str> {
        for e in &mut self.entries {
            if e.0 == key && !e.2 {
                e.2 = true;
                return Some(e.1);
            }
        }
        None
    }

    fn take_f64(&mut self, key: &str, default: f64) -> Result<f64, SpecError> {
        match self.take(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| SpecError::BadValue {
                key: key.into(),
                value: v.into(),
            }),
        }
    }

    fn take_opt_f64(&mut self, key: &str) -> Result<Option<f64>, SpecError> {
        match self.take(key) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| SpecError::BadValue {
                key: key.into(),
                value: v.into(),
            }),
        }
    }

    fn take_usize(&mut self, key: &str, default: usize) -> Result<usize, SpecError> {
        match self.take(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| SpecError::BadValue {
                key: key.into(),
                value: v.into(),
            }),
        }
    }

    fn take_u32(&mut self, key: &str, default: u32) -> Result<u32, SpecError> {
        match self.take(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| SpecError::BadValue {
                key: key.into(),
                value: v.into(),
            }),
        }
    }

    fn finish(self) -> Result<(), SpecError> {
        for (i, &(key, _, consumed)) in self.entries.iter().enumerate() {
            if !consumed {
                // A leftover key that an earlier entry already consumed is
                // a repeat, not an unknown parameter — report it as such.
                let duplicate = self.entries[..i].iter().any(|&(k, _, c)| c && k == key);
                return Err(if duplicate {
                    SpecError::DuplicateParam {
                        method: self.method,
                        key: key.into(),
                    }
                } else {
                    SpecError::UnknownParam {
                        method: self.method,
                        key: key.into(),
                    }
                });
            }
        }
        Ok(())
    }
}

/// Deepest parenthesis nesting a spec may have. Ensemble members parse
/// recursively, so an unbounded depth would overflow the stack (a
/// 19 KB spec of 1,000 nested ensembles did) instead of being refused.
const MAX_NESTING: usize = 16;

/// The deepest parenthesis nesting in `s`.
fn nesting(s: &str) -> usize {
    let mut depth = 0usize;
    s.chars()
        .map(|c| {
            match c {
                '(' => depth += 1,
                ')' => depth = depth.saturating_sub(1),
                _ => {}
            }
            depth
        })
        .max()
        .unwrap_or(0)
}

impl FromStr for MethodSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, SpecError> {
        let s = s.trim();
        if nesting(s) > MAX_NESTING {
            return Err(SpecError::Syntax {
                message: format!("nested deeper than {MAX_NESTING} parentheses"),
            });
        }
        let (name, params) = match s.split_once(':') {
            Some((n, p)) => (n.trim(), Some(p)),
            None => (s, None),
        };
        if name.is_empty() {
            return Err(SpecError::Syntax {
                message: "empty method name".into(),
            });
        }

        let spec = match name.to_ascii_lowercase().as_str() {
            "attrank" | "ar" => {
                let mut p = Params::parse("attrank", params)?;
                let alpha = p.take_f64("alpha", 0.2)?;
                let beta = p.take_opt_f64("beta")?;
                let gamma = p.take_opt_f64("gamma")?;
                let y = p.take_u32("y", 3)?;
                let w = p.take_f64("w", -0.16)?;
                p.finish()?;
                // β may be given directly, or derived from the heatmap-style
                // (α, γ) parameterization since the three sum to 1.
                let beta = match (beta, gamma) {
                    (Some(b), None) => b,
                    (None, Some(g)) => 1.0 - alpha - g,
                    (None, None) => 0.4,
                    (Some(b), Some(g)) => {
                        if (alpha + b + g - 1.0).abs() > 1e-9 {
                            return Err(SpecError::InvalidParam {
                                method: "attrank",
                                message: format!(
                                    "alpha + beta + gamma = {} must equal 1",
                                    alpha + b + g
                                ),
                            });
                        }
                        b
                    }
                };
                MethodSpec::AttRank { alpha, beta, y, w }
            }
            "pagerank" | "pr" => {
                let mut p = Params::parse("pagerank", params)?;
                let d = p.take_f64("d", 0.5)?;
                p.finish()?;
                MethodSpec::PageRank { d }
            }
            "citerank" | "cr" => {
                let mut p = Params::parse("citerank", params)?;
                let alpha = p.take_f64("alpha", 0.31)?;
                let tau = p.take_f64("tau", 1.6)?;
                p.finish()?;
                MethodSpec::CiteRank { alpha, tau }
            }
            "futurerank" | "fr" => {
                let mut p = Params::parse("futurerank", params)?;
                let alpha = p.take_f64("alpha", 0.4)?;
                let beta = p.take_f64("beta", 0.1)?;
                let gamma = p.take_f64("gamma", 0.5)?;
                let rho = p.take_f64("rho", -0.62)?;
                p.finish()?;
                MethodSpec::FutureRank {
                    alpha,
                    beta,
                    gamma,
                    rho,
                }
            }
            "ram" => {
                let mut p = Params::parse("ram", params)?;
                let gamma = p.take_f64("gamma", 0.6)?;
                p.finish()?;
                MethodSpec::Ram { gamma }
            }
            "ecm" => {
                let mut p = Params::parse("ecm", params)?;
                let alpha = p.take_f64("alpha", 0.1)?;
                let gamma = p.take_f64("gamma", 0.3)?;
                p.finish()?;
                MethodSpec::Ecm { alpha, gamma }
            }
            "hits" => {
                Params::parse("hits", params)?.finish()?;
                MethodSpec::Hits
            }
            "katz" => {
                let mut p = Params::parse("katz", params)?;
                let alpha = p.take_f64("alpha", 0.15)?;
                p.finish()?;
                MethodSpec::Katz { alpha }
            }
            "wsdm" => {
                let mut p = Params::parse("wsdm", params)?;
                let alpha = p.take_f64("alpha", 1.7)?;
                let beta = p.take_f64("beta", 3.0)?;
                let iters = p.take_usize("iters", 5)?;
                p.finish()?;
                MethodSpec::Wsdm { alpha, beta, iters }
            }
            "cc" | "citation-count" => {
                Params::parse("cc", params)?.finish()?;
                MethodSpec::CitationCount
            }
            "ensemble" => {
                let mut p = Params::parse("ensemble", params)?;
                let rule = match p.take("rule") {
                    None | Some("rrf") => {
                        let k = p.take_u32("k", 60)?;
                        EnsembleRule::Rrf { k }
                    }
                    Some("borda") => EnsembleRule::Borda,
                    Some(other) => {
                        return Err(SpecError::BadValue {
                            key: "rule".into(),
                            value: other.into(),
                        })
                    }
                };
                let members_raw = p.take("members").ok_or(SpecError::InvalidParam {
                    method: "ensemble",
                    message: "missing members=(spec)+(spec)…".into(),
                })?;
                p.finish()?;
                let mut members = Vec::new();
                for part in split_top_level(members_raw, '+')? {
                    let part = part.trim();
                    let inner = part
                        .strip_prefix('(')
                        .and_then(|t| t.strip_suffix(')'))
                        .ok_or_else(|| SpecError::Syntax {
                            message: format!("ensemble member {part:?} must be parenthesized"),
                        })?;
                    members.push(inner.parse()?);
                }
                MethodSpec::Ensemble { rule, members }
            }
            _ => {
                return Err(SpecError::UnknownMethod { name: name.into() });
            }
        };
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_every_method() {
        // One representative spec per registered method; display → parse
        // must be the identity.
        let specs = [
            "attrank:alpha=0.2,beta=0.4,y=3,w=-0.16",
            "pagerank:d=0.85",
            "citerank:alpha=0.31,tau=1.6",
            "futurerank:alpha=0.4,beta=0.1,gamma=0.5,rho=-0.62",
            "ram:gamma=0.6",
            "ecm:alpha=0.1,gamma=0.3",
            "hits",
            "katz:alpha=0.15",
            "wsdm:alpha=1.7,beta=3,iters=5",
            "cc",
            "ensemble:rule=rrf,k=60,members=(cc)+(pagerank:d=0.5)",
            "ensemble:rule=borda,members=(ram:gamma=0.6)",
        ];
        for s in specs {
            let spec: MethodSpec = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(spec.to_string(), s, "canonical form");
            let again: MethodSpec = spec.to_string().parse().unwrap();
            assert_eq!(again, spec, "round trip of {s}");
        }
    }

    #[test]
    fn defaults_fill_omitted_params() {
        assert_eq!(
            "pagerank".parse::<MethodSpec>().unwrap(),
            MethodSpec::PageRank { d: 0.5 }
        );
        assert_eq!(
            "attrank".parse::<MethodSpec>().unwrap(),
            MethodSpec::AttRank {
                alpha: 0.2,
                beta: 0.4,
                y: 3,
                w: -0.16
            }
        );
        assert_eq!(
            "wsdm:iters=4".parse::<MethodSpec>().unwrap(),
            MethodSpec::Wsdm {
                alpha: 1.7,
                beta: 3.0,
                iters: 4
            }
        );
    }

    #[test]
    fn attrank_gamma_form_derives_beta() {
        // The ISSUE/heatmap parameterization: attrank:alpha=0.2,gamma=0.3
        // means β = 1 − 0.2 − 0.3 = 0.5.
        let spec: MethodSpec = "attrank:alpha=0.2,gamma=0.3".parse().unwrap();
        match spec {
            MethodSpec::AttRank { alpha, beta, .. } => {
                assert_eq!(alpha, 0.2);
                assert!((beta - 0.5).abs() < 1e-12);
            }
            other => panic!("{other:?}"),
        }
        // Over-determined but consistent is accepted…
        assert!("attrank:alpha=0.2,beta=0.5,gamma=0.3"
            .parse::<MethodSpec>()
            .is_ok());
        // …inconsistent is not.
        assert!(matches!(
            "attrank:alpha=0.2,beta=0.5,gamma=0.9".parse::<MethodSpec>(),
            Err(SpecError::InvalidParam { .. })
        ));
    }

    #[test]
    fn unknown_method_and_params_rejected() {
        assert_eq!(
            "sciencerank".parse::<MethodSpec>().unwrap_err(),
            SpecError::UnknownMethod {
                name: "sciencerank".into()
            }
        );
        assert!(matches!(
            "ram:delta=0.5".parse::<MethodSpec>(),
            Err(SpecError::UnknownParam { method: "ram", .. })
        ));
        assert_eq!(
            "pagerank:d=0.5,d=0.6".parse::<MethodSpec>().unwrap_err(),
            SpecError::DuplicateParam {
                method: "pagerank",
                key: "d".into()
            }
        );
    }

    #[test]
    fn bad_values_and_domains_rejected() {
        assert!(matches!(
            "pagerank:d=high".parse::<MethodSpec>(),
            Err(SpecError::BadValue { .. })
        ));
        assert!(matches!(
            "pagerank:d=1.0".parse::<MethodSpec>(),
            Err(SpecError::InvalidParam { .. })
        ));
        assert!(matches!(
            "citerank:alpha=0".parse::<MethodSpec>(),
            Err(SpecError::InvalidParam { .. })
        ));
        assert!(matches!(
            "ram:gamma=1.5".parse::<MethodSpec>(),
            Err(SpecError::InvalidParam { .. })
        ));
        assert!(matches!(
            "attrank:alpha=0.9,beta=0.9".parse::<MethodSpec>(),
            Err(SpecError::InvalidParam { .. })
        ));
        assert!(matches!(
            "futurerank:rho=0.5".parse::<MethodSpec>(),
            Err(SpecError::InvalidParam { .. })
        ));
        assert!(matches!(
            "wsdm:iters=0".parse::<MethodSpec>(),
            Err(SpecError::InvalidParam { .. })
        ));
        assert!(matches!(
            "katz:alpha=1.2".parse::<MethodSpec>(),
            Err(SpecError::InvalidParam { .. })
        ));
    }

    #[test]
    fn ensemble_nesting_parses_and_validates() {
        let spec: MethodSpec = "ensemble:rule=rrf,k=10,members=(cc)+(attrank:alpha=0.1,beta=0.3)"
            .parse()
            .unwrap();
        match &spec {
            MethodSpec::Ensemble { rule, members } => {
                assert_eq!(*rule, EnsembleRule::Rrf { k: 10 });
                assert_eq!(members.len(), 2);
                assert_eq!(members[0], MethodSpec::CitationCount);
            }
            other => panic!("{other:?}"),
        }
        // Invalid member parameters surface through the nesting.
        assert!(matches!(
            "ensemble:members=(ram:gamma=2)".parse::<MethodSpec>(),
            Err(SpecError::InvalidParam { method: "ram", .. })
        ));
        // Missing members.
        assert!(matches!(
            "ensemble:rule=borda".parse::<MethodSpec>(),
            Err(SpecError::InvalidParam {
                method: "ensemble",
                ..
            })
        ));
        // Unbalanced parens.
        assert!(matches!(
            "ensemble:members=(cc".parse::<MethodSpec>(),
            Err(SpecError::Syntax { .. })
        ));
    }

    #[test]
    fn syntax_errors_are_reported() {
        assert!(matches!(
            "".parse::<MethodSpec>(),
            Err(SpecError::Syntax { .. })
        ));
        assert!(matches!(
            "ram:gamma".parse::<MethodSpec>(),
            Err(SpecError::Syntax { .. })
        ));
    }

    #[test]
    fn damping_covers_the_push_family_only() {
        assert_eq!(
            "pagerank:d=0.85".parse::<MethodSpec>().unwrap().damping(),
            Some(0.85)
        );
        assert_eq!(
            "attrank:alpha=0.2,beta=0.4"
                .parse::<MethodSpec>()
                .unwrap()
                .damping(),
            Some(0.2)
        );
        assert_eq!(
            "citerank:alpha=0.31,tau=1.6"
                .parse::<MethodSpec>()
                .unwrap()
                .damping(),
            Some(0.31)
        );
        for outside in ["cc", "hits", "katz", "wsdm", "ram", "ecm"] {
            assert_eq!(outside.parse::<MethodSpec>().unwrap().damping(), None);
        }
    }

    #[test]
    fn aliases_resolve() {
        assert_eq!("ar".parse::<MethodSpec>().unwrap().method_name(), "attrank");
        assert_eq!(
            "pr:d=0.85".parse::<MethodSpec>().unwrap(),
            MethodSpec::PageRank { d: 0.85 }
        );
        assert_eq!(
            "citation-count".parse::<MethodSpec>().unwrap(),
            MethodSpec::CitationCount
        );
    }

    /// Every rejection message must name the offending key (an operator
    /// reading a config error should not have to bisect the spec string).
    #[test]
    fn error_messages_name_the_bad_key() {
        // Out-of-domain values: the key and the method both appear.
        for (spec, method, key) in [
            ("ram:gamma=7", "ram", "gamma"),
            ("pagerank:d=1.5", "pagerank", "d"),
            ("citerank:tau=-2", "citerank", "tau"),
            ("katz:alpha=1.0", "katz", "alpha"),
            ("attrank:alpha=1,beta=0", "attrank", "alpha"),
            ("ecm:alpha=0.2,gamma=1.0", "ecm", "gamma"),
            ("futurerank:rho=0.5", "futurerank", "rho"),
        ] {
            let msg = spec.parse::<MethodSpec>().unwrap_err().to_string();
            assert!(msg.contains(method), "{spec}: {msg}");
            assert!(msg.contains(key), "{spec}: {msg}");
        }

        // Unparsable value: names the key and echoes the bad text.
        let msg = "pagerank:d=high"
            .parse::<MethodSpec>()
            .unwrap_err()
            .to_string();
        assert!(msg.contains('d') && msg.contains("high"), "{msg}");

        // Unknown key: names it and the method that rejected it.
        let msg = "ram:gama=0.5"
            .parse::<MethodSpec>()
            .unwrap_err()
            .to_string();
        assert!(msg.contains("gama") && msg.contains("ram"), "{msg}");

        // Duplicate key: names the repeated key.
        let msg = "ram:gamma=0.5,gamma=0.6"
            .parse::<MethodSpec>()
            .unwrap_err()
            .to_string();
        assert!(
            msg.contains("gamma") && msg.contains("more than once"),
            "{msg}"
        );
    }
}
