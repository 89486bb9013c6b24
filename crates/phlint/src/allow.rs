//! The committed `lint.allow` baseline.
//!
//! Every intentional finding in the tree is recorded here explicitly, one
//! line per site, pipe-separated:
//!
//! ```text
//! rule | path[:line] | snippet-substring | reason
//! ```
//!
//! * `rule` — one of the rule names ([`crate::rules::ALL_RULES`]);
//! * `path` — workspace-relative file path (forward slashes), optionally
//!   suffixed with a 1-based `:line` anchor;
//! * `snippet-substring` — a substring of the offending source line. Line
//!   numbers would churn on every edit; matching on content means an entry
//!   keeps covering its site as it moves, and a *new* site (different
//!   code) in the same file still fails CI;
//! * `reason` — mandatory free text: why the site is acceptable.
//!
//! Blank lines and `#` comments are ignored. A line with missing fields or
//! an empty reason is a parse error (exit code 2) — "every entry needs a
//! reason" is policy, machine-enforced.
//!
//! # Assignment, anchors and ambiguity
//!
//! Entries and findings are matched one-to-one by [`Allowlist::assign`]:
//! an entry can silence exactly one finding. When several findings on the
//! same path contain the same needle (two identical timing probes, say),
//! a bare-needle entry is *ambiguous* — the old first-match rule would
//! have silently silenced the wrong line. The fix is the `:line` anchor:
//! the entry claims the candidate nearest its anchor, tolerating up to
//! [`ALLOW_DRIFT`] lines of drift as surrounding code is edited. Two
//! equally-near candidates on different lines, or an un-anchored needle
//! with multiple distinct-line candidates, are hard errors (exit 2), not
//! guesses. `--update-baseline` re-anchors every matched entry.

use crate::rules::{Finding, ALL_RULES};

/// Maximum |finding line − anchor| an anchored entry still covers. Wide
/// enough to survive normal refactors above the site, narrow enough that
/// an entry cannot wander onto an unrelated duplicate across the file.
pub const ALLOW_DRIFT: u32 = 40;

/// One baseline entry.
#[derive(Clone, Debug)]
pub struct AllowEntry {
    /// Rule name the entry silences.
    pub rule: String,
    /// Workspace-relative path it applies to.
    pub path: String,
    /// Optional 1-based line anchor (`path:line`).
    pub anchor: Option<u32>,
    /// Substring of the offending line that identifies the site.
    pub needle: String,
    /// Why the site is acceptable (never empty).
    pub reason: String,
    /// 1-based line in `lint.allow` (for stale-entry reporting).
    pub line: u32,
}

/// The parsed allowlist.
#[derive(Clone, Debug, Default)]
pub struct Allowlist {
    /// Entries in file order.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parses the `lint.allow` format.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line: wrong field
    /// count, unknown rule name, or an empty reason.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('|').map(str::trim).collect();
            let lineno = idx + 1;
            if fields.len() != 4 {
                return Err(format!(
                    "lint.allow:{lineno}: expected 4 `|`-separated fields (rule | path[:line] | snippet | reason), got {}",
                    fields.len()
                ));
            }
            let (rule, path_field, needle, reason) = (fields[0], fields[1], fields[2], fields[3]);
            if !ALL_RULES.contains(&rule) {
                return Err(format!("lint.allow:{lineno}: unknown rule `{rule}`"));
            }
            if needle.is_empty() {
                return Err(format!("lint.allow:{lineno}: empty snippet-substring"));
            }
            if reason.is_empty() {
                return Err(format!(
                    "lint.allow:{lineno}: every entry needs a reason (policy; see DESIGN.md §9)"
                ));
            }
            // `path.rs:123` → anchored; a non-numeric suffix is part of the
            // path (no file in this tree contains `:`, so this is safe).
            let (path, anchor) = match path_field.rsplit_once(':') {
                Some((p, n)) => match n.parse::<u32>() {
                    Ok(a) if a > 0 => (p, Some(a)),
                    _ => {
                        return Err(format!(
                            "lint.allow:{lineno}: bad line anchor `:{n}` (need a positive integer)"
                        ))
                    }
                },
                None => (path_field, None),
            };
            entries.push(AllowEntry {
                rule: rule.to_owned(),
                path: path.to_owned(),
                anchor,
                needle: needle.to_owned(),
                reason: reason.to_owned(),
                line: lineno as u32,
            });
        }
        Ok(Allowlist { entries })
    }

    /// Assigns findings to entries one-to-one. Returns, per finding, the
    /// index of the entry that silences it (`None` = the finding is new).
    ///
    /// Entries claim findings in `lint.allow` order. An anchored entry
    /// considers only candidates within [`ALLOW_DRIFT`] lines of its
    /// anchor and takes the nearest; a bare entry takes its only
    /// candidate.
    ///
    /// # Errors
    ///
    /// * an anchored entry with two equally-near candidates on different
    ///   lines — ambiguous;
    /// * a bare entry whose needle matches findings on more than one line
    ///   — ambiguous, add a `:line` anchor.
    ///
    /// Both are fatal (exit 2): a baseline that cannot say *which* site it
    /// blesses is not a baseline.
    pub fn assign(&self, findings: &[Finding]) -> Result<Vec<Option<usize>>, String> {
        let mut owner: Vec<Option<usize>> = vec![None; findings.len()];
        for (ei, e) in self.entries.iter().enumerate() {
            let candidates: Vec<usize> = findings
                .iter()
                .enumerate()
                .filter(|(fi, f)| {
                    owner[*fi].is_none()
                        && e.rule == f.rule
                        && e.path == f.path
                        && f.snippet.contains(&e.needle)
                        && e.anchor.is_none_or(|a| f.line.abs_diff(a) <= ALLOW_DRIFT)
                })
                .map(|(fi, _)| fi)
                .collect();
            let Some(&first) = candidates.first() else {
                continue; // stale entry; reported by the caller
            };
            let chosen = match e.anchor {
                Some(a) => {
                    let best = candidates
                        .iter()
                        .map(|&fi| findings[fi].line.abs_diff(a))
                        .min()
                        .unwrap_or(0);
                    let nearest: Vec<usize> = candidates
                        .iter()
                        .copied()
                        .filter(|&fi| findings[fi].line.abs_diff(a) == best)
                        .collect();
                    let lines: Vec<u32> = nearest.iter().map(|&fi| findings[fi].line).collect();
                    if lines.windows(2).any(|w| w[0] != w[1]) {
                        return Err(format!(
                            "lint.allow:{}: ambiguous entry: findings on lines {:?} of {} are equally near anchor :{a}; move the anchor to the intended line",
                            e.line, lines, e.path
                        ));
                    }
                    nearest[0]
                }
                None => {
                    let mut lines: Vec<u32> =
                        candidates.iter().map(|&fi| findings[fi].line).collect();
                    lines.dedup();
                    if lines.len() > 1 {
                        return Err(format!(
                            "lint.allow:{}: ambiguous entry: needle `{}` matches findings on lines {:?} of {}; add a `:line` anchor to the path",
                            e.line, e.needle, lines, e.path
                        ));
                    }
                    first
                }
            };
            owner[chosen] = Some(ei);
        }
        Ok(owner)
    }

    /// Renders a refreshed baseline by rewriting the previous file in
    /// place: comment and blank lines are preserved verbatim wherever
    /// they sit, each entry line that still covers a finding is
    /// re-anchored to that finding's current line (needle and reason
    /// preserved), and stale entry lines are dropped. An anchored entry
    /// whose site moved more than [`ALLOW_DRIFT`] lines still covers it
    /// here when its needle matches exactly one finding of its rule in
    /// its file that no other entry claimed. A dropped entry can orphan
    /// its comment block — that is deliberate; prose is never deleted by
    /// machine.
    ///
    /// # Errors
    ///
    /// Propagates ambiguity errors from [`Allowlist::assign`].
    pub fn render_updated(
        &self,
        previous_text: &str,
        findings: &[Finding],
    ) -> Result<(String, Vec<&AllowEntry>), String> {
        let owner = self.assign(findings)?;
        // Entry index -> the one finding it covers (parse order matches
        // the order of entry lines in `previous_text`).
        let mut covers: Vec<Option<&Finding>> = vec![None; self.entries.len()];
        for (fi, o) in owner.iter().enumerate() {
            if let Some(ei) = o {
                covers[*ei] = Some(&findings[fi]);
            }
        }
        // Anchored entries whose site drifted out of range: re-anchor to
        // the one unclaimed finding their needle still matches.
        let mut claimed: Vec<bool> = owner.iter().map(Option::is_some).collect();
        for (ei, e) in self.entries.iter().enumerate() {
            if covers[ei].is_some() || e.anchor.is_none() {
                continue;
            }
            let mut matching = findings.iter().enumerate().filter(|(fi, f)| {
                !claimed[*fi]
                    && e.rule == f.rule
                    && e.path == f.path
                    && f.snippet.contains(&e.needle)
            });
            if let (Some((fi, f)), None) = (matching.next(), matching.next()) {
                claimed[fi] = true;
                covers[ei] = Some(f);
            }
        }
        let stale: Vec<&AllowEntry> = covers
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_none())
            .map(|(ei, _)| &self.entries[ei])
            .collect();
        let mut out = String::new();
        let mut ei = 0usize;
        for line in previous_text.lines() {
            let t = line.trim();
            if t.is_empty() || t.starts_with('#') {
                out.push_str(line);
                out.push('\n');
                continue;
            }
            if let Some(Some(f)) = covers.get(ei) {
                let e = &self.entries[ei];
                out.push_str(&format!(
                    "{} | {}:{} | {} | {}\n",
                    e.rule, e.path, f.line, e.needle, e.reason
                ));
            }
            ei += 1;
        }
        Ok((out, stale))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{DIGEST_TAINT, NONDETERMINISTIC_ITERATION, RELAXED_ORDERING};

    fn finding(rule: &'static str, path: &str, line: u32, snippet: &str) -> Finding {
        Finding {
            rule,
            path: path.to_owned(),
            line,
            snippet: snippet.to_owned(),
            message: String::new(),
        }
    }

    #[test]
    fn parses_and_assigns() {
        let a = Allowlist::parse(
            "# comment\n\
             nondeterministic-iteration | crates/netsim/src/world.rs | cells.retain | buckets pruned, order-independent\n",
        )
        .unwrap();
        assert_eq!(a.entries.len(), 1);
        let hit = [finding(
            NONDETERMINISTIC_ITERATION,
            "crates/netsim/src/world.rs",
            10,
            "self.index.cells.retain(|_, v| !v.is_empty());",
        )];
        assert_eq!(a.assign(&hit).unwrap(), vec![Some(0)]);
        // Different code in the same file is NOT covered.
        let miss = [finding(
            NONDETERMINISTIC_ITERATION,
            "crates/netsim/src/world.rs",
            10,
            "for x in sneaky.values() {",
        )];
        assert_eq!(a.assign(&miss).unwrap(), vec![None]);
        // Same snippet in a different file is NOT covered.
        let other = [finding(
            NONDETERMINISTIC_ITERATION,
            "crates/netsim/src/trace.rs",
            10,
            "cells.retain(|_, v| true);",
        )];
        assert_eq!(a.assign(&other).unwrap(), vec![None]);
    }

    #[test]
    fn shared_needle_without_anchor_is_a_hard_error() {
        // Two identical probes: the un-anchored entry cannot say which one
        // it blesses, so it must not silently cover both (the old bug) or
        // either (a guess).
        let a = Allowlist::parse(
            "digest-taint | crates/peerhood/src/sim.rs | Instant::now | epoch timing probe\n",
        )
        .unwrap();
        let f = [
            finding(
                DIGEST_TAINT,
                "crates/peerhood/src/sim.rs",
                100,
                "let t0 = self.collect_timing.then(Instant::now);",
            ),
            finding(
                DIGEST_TAINT,
                "crates/peerhood/src/sim.rs",
                113,
                "let t0 = self.collect_timing.then(Instant::now);",
            ),
        ];
        let err = a.assign(&f).unwrap_err();
        assert!(err.contains("ambiguous"), "{err}");
        assert!(err.contains(":line"), "{err}");
    }

    #[test]
    fn anchors_disambiguate_and_claim_one_to_one() {
        let a = Allowlist::parse(
            "digest-taint | crates/peerhood/src/sim.rs:100 | Instant::now | probe A\n\
             digest-taint | crates/peerhood/src/sim.rs:113 | Instant::now | probe B\n",
        )
        .unwrap();
        let f = [
            finding(
                DIGEST_TAINT,
                "crates/peerhood/src/sim.rs",
                102,
                "then(Instant::now);",
            ),
            finding(
                DIGEST_TAINT,
                "crates/peerhood/src/sim.rs",
                115,
                "then(Instant::now);",
            ),
        ];
        assert_eq!(a.assign(&f).unwrap(), vec![Some(0), Some(1)]);
        // One entry never covers two findings: with only the first entry,
        // the second probe stays a new finding.
        let a1 = Allowlist::parse(
            "digest-taint | crates/peerhood/src/sim.rs:100 | Instant::now | probe A\n",
        )
        .unwrap();
        assert_eq!(a1.assign(&f).unwrap(), vec![Some(0), None]);
    }

    #[test]
    fn anchor_drift_is_bounded() {
        let a = Allowlist::parse(
            "digest-taint | crates/peerhood/src/sim.rs:100 | Instant::now | timing probe\n",
        )
        .unwrap();
        let near = [finding(
            DIGEST_TAINT,
            "crates/peerhood/src/sim.rs",
            100 + ALLOW_DRIFT,
            "Instant::now",
        )];
        assert_eq!(a.assign(&near).unwrap(), vec![Some(0)]);
        let far = [finding(
            DIGEST_TAINT,
            "crates/peerhood/src/sim.rs",
            101 + ALLOW_DRIFT,
            "Instant::now",
        )];
        assert_eq!(a.assign(&far).unwrap(), vec![None]);
    }

    #[test]
    fn equidistant_anchor_is_a_hard_error() {
        let a = Allowlist::parse(
            "digest-taint | crates/peerhood/src/sim.rs:100 | Instant::now | timing probe\n",
        )
        .unwrap();
        let f = [
            finding(
                DIGEST_TAINT,
                "crates/peerhood/src/sim.rs",
                95,
                "Instant::now",
            ),
            finding(
                DIGEST_TAINT,
                "crates/peerhood/src/sim.rs",
                105,
                "Instant::now",
            ),
        ];
        let err = a.assign(&f).unwrap_err();
        assert!(err.contains("equally near"), "{err}");
    }

    #[test]
    fn reason_is_mandatory() {
        let err = Allowlist::parse("relaxed-ordering | a.rs | x | ").unwrap_err();
        assert!(err.contains("reason"), "{err}");
        let err = Allowlist::parse("relaxed-ordering | a.rs | x").unwrap_err();
        assert!(err.contains("4"), "{err}");
    }

    #[test]
    fn unknown_rules_and_bad_anchors_rejected() {
        let err = Allowlist::parse("made-up-rule | a.rs | x | because").unwrap_err();
        assert!(err.contains("unknown rule"), "{err}");
        let err = Allowlist::parse("relaxed-ordering | a.rs:0 | x | because").unwrap_err();
        assert!(err.contains("anchor"), "{err}");
        let err = Allowlist::parse("relaxed-ordering | a.rs:12x | x | because").unwrap_err();
        assert!(err.contains("anchor"), "{err}");
    }

    #[test]
    fn render_updated_reanchors_and_drops_stale() {
        let prev = "# header\n# more header\n\
                    \n# -- section comment, must survive in place ----\n\
                    digest-taint | crates/peerhood/src/sim.rs:90 | Instant::now | timing probe\n\
                    relaxed-ordering | crates/netsim/src/gone.rs | load | stale site\n";
        let a = Allowlist::parse(prev).unwrap();
        let f = [finding(
            DIGEST_TAINT,
            "crates/peerhood/src/sim.rs",
            97,
            "Instant::now",
        )];
        let (text, stale) = a.render_updated(prev, &f).unwrap();
        assert!(text.starts_with("# header\n# more header\n"), "{text}");
        assert!(
            text.contains(
                "# -- section comment, must survive in place ----\n\
                 digest-taint | crates/peerhood/src/sim.rs:97 | Instant::now | timing probe"
            ),
            "interstitial comments stay next to their entries: {text}"
        );
        assert!(!text.contains("gone.rs"), "{text}");
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].path, "crates/netsim/src/gone.rs");
    }

    #[test]
    fn render_updated_reanchors_sites_that_moved_past_the_drift() {
        let prev =
            "relaxed-ordering | crates/harness/src/bin/repro.rs:26 | ALLOCS.fetch_add | counter\n\
                    digest-taint | crates/peerhood/src/sim.rs:100 | Instant::now | probe A\n\
                    digest-taint | crates/peerhood/src/sim.rs:300 | Instant::now | probe B\n\
                    digest-taint | crates/peerhood/src/sim.rs:500 | Instant::now | probe C\n";
        let a = Allowlist::parse(prev).unwrap();
        let far = 26 + ALLOW_DRIFT + 60;
        let f = [
            finding(
                RELAXED_ORDERING,
                "crates/harness/src/bin/repro.rs",
                far,
                "ALLOCS.fetch_add(1, Ordering::Relaxed);",
            ),
            // Probe A is still in range; probe B moved far, and its
            // needle matches only one finding A did not claim. Probe C
            // has no finding left and is stale.
            finding(
                DIGEST_TAINT,
                "crates/peerhood/src/sim.rs",
                105,
                "Instant::now",
            ),
            finding(
                DIGEST_TAINT,
                "crates/peerhood/src/sim.rs",
                200,
                "Instant::now",
            ),
        ];
        assert_eq!(a.assign(&f).unwrap(), vec![None, Some(1), None]);
        let (text, stale) = a.render_updated(prev, &f).unwrap();
        assert_eq!(
            text,
            format!(
                "relaxed-ordering | crates/harness/src/bin/repro.rs:{far} | ALLOCS.fetch_add | counter\n\
                 digest-taint | crates/peerhood/src/sim.rs:105 | Instant::now | probe A\n\
                 digest-taint | crates/peerhood/src/sim.rs:200 | Instant::now | probe B\n"
            )
        );
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].reason, "probe C");
        // Two unclaimed candidates far from the anchor: no guess, the
        // entry is dropped as stale.
        let two = [
            finding(
                DIGEST_TAINT,
                "crates/peerhood/src/sim.rs",
                200,
                "Instant::now",
            ),
            finding(
                DIGEST_TAINT,
                "crates/peerhood/src/sim.rs",
                210,
                "Instant::now",
            ),
        ];
        let prev = "digest-taint | crates/peerhood/src/sim.rs:500 | Instant::now | probe\n";
        let a = Allowlist::parse(prev).unwrap();
        let (text, stale) = a.render_updated(prev, &two).unwrap();
        assert_eq!(text, "");
        assert_eq!(stale.len(), 1);
    }
}
