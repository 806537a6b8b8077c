//! Declarative predictor construction for experiment sweeps.

use std::fmt;

use crate::agree::Agree;
use crate::bimodal::Bimodal;
use crate::gshare::Gshare;
use crate::local::Local;
use crate::oracle::PerfectGuard;
use crate::perceptron::Perceptron;
use crate::pgu::Pgu;
use crate::predictor::{BranchPredictor, StaticPredictor};
use crate::sfpf::SquashFilter;
use crate::tournament::Tournament;

/// A declarative description of a predictor configuration, used by the
/// experiment harness to sweep baselines × techniques × sizes from data
/// tables instead of code.
///
/// # Examples
///
/// ```
/// use predbranch_core::{build_predictor, PredictorSpec};
///
/// let spec = PredictorSpec::Gshare { index_bits: 14, history_bits: 12 }
///     .with_sfpf()
///     .with_pgu(0);
/// let p = build_predictor(&spec);
/// assert!(p.name().contains("sfpf"));
/// assert!(p.name().contains("pgu"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredictorSpec {
    /// Always not-taken.
    StaticNotTaken,
    /// Backward-taken / forward-not-taken.
    StaticBtfn,
    /// Per-PC 2-bit counters.
    Bimodal {
        /// log2 table entries.
        index_bits: u32,
    },
    /// Global-history gshare.
    Gshare {
        /// log2 table entries.
        index_bits: u32,
        /// History register length.
        history_bits: u32,
    },
    /// Two-level local predictor.
    Local {
        /// log2 branch-history-table entries.
        bht_bits: u32,
        /// Per-branch history length.
        history_bits: u32,
        /// log2 pattern-table entries.
        pattern_bits: u32,
    },
    /// McFarling tournament.
    Tournament {
        /// log2 gshare table entries.
        gshare_bits: u32,
        /// Global history length.
        history_bits: u32,
        /// log2 bimodal table entries.
        bimodal_bits: u32,
        /// log2 chooser table entries.
        chooser_bits: u32,
    },
    /// Agree predictor: bias bits + gshare-indexed agree counters
    /// (extension baseline).
    Agree {
        /// log2 table entries (bias and agree tables).
        index_bits: u32,
        /// Global history length.
        history_bits: u32,
    },
    /// Perceptron predictor over global history (extension baseline).
    Perceptron {
        /// log2 weight-vector count.
        index_bits: u32,
        /// Global history length.
        history_bits: u32,
    },
    /// Perfect-guard oracle (100% accurate upper bound).
    OracleGuard,
    /// Add the squash false-path filter around the base predictor.
    Sfpf {
        /// The wrapped configuration.
        base: Box<PredictorSpec>,
        /// Also apply the known-true → taken rule.
        known_true: bool,
        /// Whether filtered branches still train the base predictor.
        update_filtered: bool,
        /// Model guard identification with a learned pc → guard table of
        /// `2^n` entries (`None` = idealized decode-at-fetch).
        learned_guards: Option<u32>,
    },
    /// Add predicate global update around a global-history base
    /// ([`PredictorSpec::Gshare`] or [`PredictorSpec::Tournament`], or an
    /// `Sfpf` around one of those; anything else falls back to the plain
    /// base).
    Pgu {
        /// The wrapped configuration.
        base: Box<PredictorSpec>,
        /// Insertion delay in fetch slots (0 = execute-time).
        delay: u64,
    },
}

impl PredictorSpec {
    /// Wraps this spec in the squash false-path filter (default policy).
    pub fn with_sfpf(self) -> PredictorSpec {
        PredictorSpec::Sfpf {
            base: Box::new(self),
            known_true: false,
            update_filtered: true,
            learned_guards: None,
        }
    }

    /// Wraps this spec in predicate global update with the given delay.
    pub fn with_pgu(self, delay: u64) -> PredictorSpec {
        PredictorSpec::Pgu {
            base: Box::new(self),
            delay,
        }
    }

    /// A 2-bit-counter gshare sized to roughly `kilobytes` KB of counter
    /// storage, with history matched to the index width — the sizing
    /// convention used in the study's budget sweeps.
    pub fn gshare_kb(kilobytes: u32) -> PredictorSpec {
        // 2^index_bits counters × 2 bits = budget; 1 KB = 4096 counters
        let index_bits = 12 + kilobytes.max(1).ilog2();
        PredictorSpec::Gshare {
            index_bits,
            history_bits: index_bits.min(16),
        }
    }
}

/// `Display` delegates to the built predictor's name so table rows and
/// specs never diverge.
impl fmt::Display for PredictorSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&build_predictor(self).name())
    }
}

/// Builds a boxed predictor from a spec.
///
/// PGU requires a global-history base; applying it to a base without one
/// (e.g. bimodal) returns the base unchanged, which keeps sweep tables
/// total without special-casing.
pub fn build_predictor(spec: &PredictorSpec) -> Box<dyn BranchPredictor> {
    match spec {
        PredictorSpec::StaticNotTaken => Box::new(StaticPredictor::NotTaken),
        PredictorSpec::StaticBtfn => Box::new(StaticPredictor::Btfn),
        PredictorSpec::Bimodal { index_bits } => Box::new(Bimodal::new(*index_bits)),
        PredictorSpec::Gshare {
            index_bits,
            history_bits,
        } => Box::new(Gshare::new(*index_bits, *history_bits)),
        PredictorSpec::Local {
            bht_bits,
            history_bits,
            pattern_bits,
        } => Box::new(Local::new(*bht_bits, *history_bits, *pattern_bits)),
        PredictorSpec::Tournament {
            gshare_bits,
            history_bits,
            bimodal_bits,
            chooser_bits,
        } => Box::new(Tournament::new(
            *gshare_bits,
            *history_bits,
            *bimodal_bits,
            *chooser_bits,
        )),
        PredictorSpec::Agree {
            index_bits,
            history_bits,
        } => Box::new(Agree::new(*index_bits, *history_bits)),
        PredictorSpec::Perceptron {
            index_bits,
            history_bits,
        } => Box::new(Perceptron::new(*index_bits, *history_bits)),
        PredictorSpec::OracleGuard => Box::new(PerfectGuard::new()),
        PredictorSpec::Sfpf {
            base,
            known_true,
            update_filtered,
            learned_guards,
        } => {
            let mut filter = SquashFilter::new(build_predictor(base))
                .with_known_true(*known_true)
                .with_update_filtered(*update_filtered);
            if let Some(bits) = learned_guards {
                filter = filter.with_learned_guards(*bits);
            }
            Box::new(filter)
        }
        PredictorSpec::Pgu { base, delay } => match &**base {
            PredictorSpec::Gshare {
                index_bits,
                history_bits,
            } => Box::new(Pgu::new(Gshare::new(*index_bits, *history_bits)).with_delay(*delay)),
            PredictorSpec::Tournament {
                gshare_bits,
                history_bits,
                bimodal_bits,
                chooser_bits,
            } => Box::new(
                Pgu::new(Tournament::new(
                    *gshare_bits,
                    *history_bits,
                    *bimodal_bits,
                    *chooser_bits,
                ))
                .with_delay(*delay),
            ),
            PredictorSpec::Agree {
                index_bits,
                history_bits,
            } => Box::new(Pgu::new(Agree::new(*index_bits, *history_bits)).with_delay(*delay)),
            PredictorSpec::Perceptron {
                index_bits,
                history_bits,
            } => Box::new(Pgu::new(Perceptron::new(*index_bits, *history_bits)).with_delay(*delay)),
            PredictorSpec::Sfpf {
                base: inner,
                known_true,
                update_filtered,
                learned_guards,
            } => {
                // sfpf(pgu(base)): the filter sits in front of PGU
                let pgu = PredictorSpec::Pgu {
                    base: inner.clone(),
                    delay: *delay,
                };
                let mut filter = SquashFilter::new(build_predictor(&pgu))
                    .with_known_true(*known_true)
                    .with_update_filtered(*update_filtered);
                if let Some(bits) = learned_guards {
                    filter = filter.with_learned_guards(*bits);
                }
                Box::new(filter)
            }
            other => build_predictor(other),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_every_base() {
        let specs = [
            PredictorSpec::StaticNotTaken,
            PredictorSpec::StaticBtfn,
            PredictorSpec::Bimodal { index_bits: 10 },
            PredictorSpec::Gshare {
                index_bits: 12,
                history_bits: 10,
            },
            PredictorSpec::Local {
                bht_bits: 10,
                history_bits: 10,
                pattern_bits: 12,
            },
            PredictorSpec::Tournament {
                gshare_bits: 12,
                history_bits: 10,
                bimodal_bits: 12,
                chooser_bits: 12,
            },
            PredictorSpec::OracleGuard,
            PredictorSpec::Perceptron {
                index_bits: 8,
                history_bits: 16,
            },
            PredictorSpec::Agree {
                index_bits: 10,
                history_bits: 10,
            },
        ];
        for spec in &specs {
            let p = build_predictor(spec);
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn sfpf_and_pgu_compose() {
        let spec = PredictorSpec::Gshare {
            index_bits: 10,
            history_bits: 10,
        }
        .with_sfpf()
        .with_pgu(4);
        let p = build_predictor(&spec);
        assert_eq!(p.name(), "sfpf+pgu[d4]+gshare-10/10");
    }

    #[test]
    fn pgu_on_historyless_base_falls_back() {
        let spec = PredictorSpec::Bimodal { index_bits: 8 }.with_pgu(0);
        let p = build_predictor(&spec);
        assert_eq!(p.name(), "bimodal-8");
    }

    #[test]
    fn gshare_kb_sizing() {
        // 1 KB → 4096 counters → 12 index bits
        match PredictorSpec::gshare_kb(1) {
            PredictorSpec::Gshare { index_bits, .. } => assert_eq!(index_bits, 12),
            other => panic!("unexpected {other:?}"),
        }
        match PredictorSpec::gshare_kb(16) {
            PredictorSpec::Gshare {
                index_bits,
                history_bits,
            } => {
                assert_eq!(index_bits, 16);
                assert_eq!(history_bits, 16);
            }
            other => panic!("unexpected {other:?}"),
        }
        match PredictorSpec::gshare_kb(64) {
            PredictorSpec::Gshare { history_bits, .. } => assert_eq!(history_bits, 16),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn display_matches_built_name() {
        let spec = PredictorSpec::Gshare {
            index_bits: 10,
            history_bits: 8,
        };
        assert_eq!(spec.to_string(), build_predictor(&spec).name());
    }
}

/// Error from parsing a [`PredictorSpec`] string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePredictorSpecError(String);

impl fmt::Display for ParsePredictorSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad predictor spec: {}", self.0)
    }
}

impl std::error::Error for ParsePredictorSpecError {}

/// Parses the compact spec syntax used by the CLIs:
///
/// ```text
/// base      := nt | btfn | oracle
///            | bimodal:I | gshare:I/H | local:B/H/P
///            | tournament:G/H/B/C | perceptron:I/H | agree:I/H
/// modifier  := +sfpf | +sfpf! (also use known-true) | +pgu | +pguN (delay N)
/// spec      := base modifier*
/// ```
///
/// # Examples
///
/// ```
/// use predbranch_core::{build_predictor, PredictorSpec};
///
/// let spec: PredictorSpec = "gshare:13/13+sfpf+pgu8".parse().unwrap();
/// assert_eq!(build_predictor(&spec).name(), "sfpf+pgu[d8]+gshare-13/13");
/// ```
impl std::str::FromStr for PredictorSpec {
    type Err = ParsePredictorSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |msg: &str| ParsePredictorSpecError(format!("{msg} in `{s}`"));
        let mut parts = s.split('+');
        let base_text = parts.next().ok_or_else(|| err("empty spec"))?.trim();
        let (kind, params) = match base_text.split_once(':') {
            Some((k, p)) => (k, p),
            None => (base_text, ""),
        };
        let nums: Vec<u32> = if params.is_empty() {
            Vec::new()
        } else {
            params
                .split('/')
                .map(|n| n.trim().parse::<u32>())
                .collect::<Result<_, _>>()
                .map_err(|_| err("bad numeric parameter"))?
        };
        let want = |n: usize| -> Result<(), ParsePredictorSpecError> {
            if nums.len() == n {
                Ok(())
            } else {
                Err(err("wrong parameter count"))
            }
        };
        // Each parameter is checked against the range its constructor
        // asserts, so an out-of-range spec is a typed error, not a panic.
        let bits = |i: usize, max: u32, what: &str| -> Result<u32, ParsePredictorSpecError> {
            if (1..=max).contains(&nums[i]) {
                Ok(nums[i])
            } else {
                Err(err(&format!("{what} must be 1..={max}")))
            }
        };
        let mut spec = match kind {
            "nt" => {
                want(0)?;
                PredictorSpec::StaticNotTaken
            }
            "btfn" => {
                want(0)?;
                PredictorSpec::StaticBtfn
            }
            "oracle" => {
                want(0)?;
                PredictorSpec::OracleGuard
            }
            "bimodal" => {
                want(1)?;
                PredictorSpec::Bimodal {
                    index_bits: bits(0, 28, "index bits")?,
                }
            }
            "gshare" => {
                want(2)?;
                PredictorSpec::Gshare {
                    index_bits: bits(0, 28, "index bits")?,
                    history_bits: bits(1, 64, "history bits")?,
                }
            }
            "local" => {
                want(3)?;
                PredictorSpec::Local {
                    bht_bits: bits(0, 28, "bht bits")?,
                    history_bits: bits(1, 64, "history bits")?,
                    pattern_bits: bits(2, 28, "pattern bits")?,
                }
            }
            "tournament" => {
                want(4)?;
                PredictorSpec::Tournament {
                    gshare_bits: bits(0, 28, "gshare bits")?,
                    history_bits: bits(1, 64, "history bits")?,
                    bimodal_bits: bits(2, 28, "bimodal bits")?,
                    chooser_bits: bits(3, 28, "chooser bits")?,
                }
            }
            "perceptron" => {
                want(2)?;
                PredictorSpec::Perceptron {
                    index_bits: bits(0, 20, "index bits")?,
                    history_bits: bits(1, 64, "history bits")?,
                }
            }
            "agree" => {
                want(2)?;
                PredictorSpec::Agree {
                    index_bits: bits(0, 28, "index bits")?,
                    history_bits: bits(1, 64, "history bits")?,
                }
            }
            _ => return Err(err("unknown base predictor")),
        };
        // Modifiers apply inside-out in the order written: "+pgu+sfpf"
        // yields sfpf(pgu(base)) like the builder methods would.
        for modifier in parts {
            let modifier = modifier.trim();
            if modifier == "sfpf" {
                spec = spec.with_sfpf();
            } else if modifier == "sfpf!" {
                spec = PredictorSpec::Sfpf {
                    base: Box::new(spec),
                    known_true: true,
                    update_filtered: true,
                    learned_guards: None,
                };
            } else if let Some(rest) = modifier.strip_prefix("pgu") {
                let delay: u64 = if rest.is_empty() {
                    8
                } else {
                    rest.parse().map_err(|_| err("bad pgu delay"))?
                };
                spec = spec.with_pgu(delay);
            } else {
                return Err(err("unknown modifier"));
            }
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod parse_tests {
    use super::*;

    #[test]
    fn parses_every_base() {
        for (text, expect_name) in [
            ("nt", "static-nt"),
            ("btfn", "static-btfn"),
            ("oracle", "oracle-guard"),
            ("bimodal:12", "bimodal-12"),
            ("gshare:13/13", "gshare-13/13"),
            ("local:10/10/12", "local-10/10/12"),
            ("tournament:12/12/12/12", "tournament-12"),
            ("perceptron:7/14", "perceptron-7/14"),
            ("agree:12/12", "agree-12/12"),
        ] {
            let spec: PredictorSpec = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(build_predictor(&spec).name(), expect_name, "{text}");
        }
    }

    #[test]
    fn parses_modifiers_in_order() {
        let spec: PredictorSpec = "gshare:10/10+pgu4+sfpf".parse().unwrap();
        assert_eq!(build_predictor(&spec).name(), "sfpf+pgu[d4]+gshare-10/10");
        let spec: PredictorSpec = "gshare:10/10+sfpf+pgu".parse().unwrap();
        assert_eq!(build_predictor(&spec).name(), "sfpf+pgu[d8]+gshare-10/10");
        let spec: PredictorSpec = "gshare:10/10+sfpf!".parse().unwrap();
        assert!(build_predictor(&spec).name().contains("sfpf±"));
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "tage:1",
            "gshare",
            "gshare:13",
            "gshare:13/13/13",
            "gshare:a/b",
            "gshare:13/13+magic",
            "gshare:13/13+pguX",
            // outside the ranges the constructors assert
            "bimodal:0",
            "bimodal:29",
            "gshare:99/99",
            "gshare:13/0",
            "gshare:13/65",
            "local:0/10/12",
            "local:10/65/12",
            "local:10/10/29",
            "tournament:12/12/12/29",
            "perceptron:0/0",
            "perceptron:21/14",
            "agree:40/40",
            "agree:12/0",
        ] {
            assert!(bad.parse::<PredictorSpec>().is_err(), "accepted `{bad}`");
        }
    }
}
