//! Explicit exclusion of nondeterministic structures from the state hash.
//!
//! Some structures are auxiliary: a free-list's link order, a dangling
//! pointer field in a result record. The programmer can *explicitly*
//! exclude them (the paper warns against doing this silently) and
//! InstantCheck then checks determinism of everything else. Exclusion is
//! expressed against program-level names — global regions and heap
//! allocation sites — and resolved against the live state at each
//! checkpoint.

use tsim::{Addr, StateView, ValKind};

/// Which memory words to exclude from the state hash.
///
/// # Example
///
/// ```
/// use instantcheck::IgnoreSpec;
///
/// // cholesky: ignore the per-thread free-task lists;
/// // pbzip2: ignore word 2 (a dangling pointer) of every result record.
/// let spec = IgnoreSpec::new()
///     .ignore_site("free_task_list")
///     .ignore_site_offsets("result_record", [2]);
/// assert!(!spec.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IgnoreSpec {
    pub(crate) globals: Vec<(String, Option<(usize, usize)>)>,
    pub(crate) sites: Vec<(String, Option<Vec<usize>>)>,
}

impl IgnoreSpec {
    /// An empty spec (nothing excluded).
    pub fn new() -> Self {
        IgnoreSpec::default()
    }

    /// Returns `true` if nothing is excluded.
    pub fn is_empty(&self) -> bool {
        self.globals.is_empty() && self.sites.is_empty()
    }

    /// Excludes an entire named global region.
    #[must_use]
    pub fn ignore_global(mut self, name: impl Into<String>) -> Self {
        self.globals.push((name.into(), None));
        self
    }

    /// Excludes words `start..end` of a named global region.
    #[must_use]
    pub fn ignore_global_range(
        mut self,
        name: impl Into<String>,
        start: usize,
        end: usize,
    ) -> Self {
        self.globals.push((name.into(), Some((start, end))));
        self
    }

    /// Excludes every live block allocated at `site`, entirely.
    #[must_use]
    pub fn ignore_site(mut self, site: impl Into<String>) -> Self {
        self.sites.push((site.into(), None));
        self
    }

    /// Excludes the given word offsets (mod the block's type-tag stride —
    /// i.e. per struct element) of every live block allocated at `site`.
    #[must_use]
    pub fn ignore_site_offsets(
        mut self,
        site: impl Into<String>,
        offsets: impl IntoIterator<Item = usize>,
    ) -> Self {
        self.sites
            .push((site.into(), Some(offsets.into_iter().collect())));
        self
    }

    /// A stable 64-bit token of the spec's contents, for run-cache keys
    /// ([`RunKey::ignore_token`](crate::RunKey)). Equal specs produce
    /// equal tokens; the token covers every name, range, and offset
    /// list, in insertion order (the order [`PartialEq`] compares by).
    pub fn cache_token(&self) -> u64 {
        use crate::cache::{mix_bytes, mix_u64};
        let mut h = 0x19_6e_04_e5u64;
        for (name, range) in &self.globals {
            h = mix_bytes(h, name.as_bytes());
            match range {
                None => h = mix_u64(h, 0),
                Some((start, end)) => {
                    h = mix_u64(h, 1);
                    h = mix_u64(h, *start as u64);
                    h = mix_u64(h, *end as u64);
                }
            }
        }
        // Section separator: a global named "x" and a site named "x"
        // must not produce the same token.
        h = mix_u64(h, 0x5e_c7_10_4e);
        for (site, offsets) in &self.sites {
            h = mix_bytes(h, site.as_bytes());
            match offsets {
                None => h = mix_u64(h, 0),
                Some(offs) => {
                    h = mix_u64(h, 1 + offs.len() as u64);
                    for &o in offs {
                        h = mix_u64(h, o as u64);
                    }
                }
            }
        }
        h
    }

    /// Resolves the spec against a live state: every excluded word, with
    /// its declared kind, sorted by address and without duplicates.
    ///
    /// The result depends only on the global regions and the live block
    /// table, never on memory contents, so it stays valid while the
    /// view's [`alloc_epoch`](StateView::alloc_epoch) holds. Site entries
    /// are matched in one pass over the blocks.
    pub fn resolve(&self, view: &StateView<'_>) -> Vec<(Addr, ValKind)> {
        let mut out = Vec::new();
        for (name, range) in &self.globals {
            if let Some(g) = view.global(name) {
                let (start, end) = match *range {
                    Some((s, e)) => (s, e.min(g.region.len)),
                    None => (0, g.region.len),
                };
                for i in start..end {
                    out.push((g.region.at(i), g.region.kind));
                }
            }
        }
        if !self.sites.is_empty() {
            for block in view.blocks() {
                for (_, offsets) in self.sites.iter().filter(|(s, _)| s == block.site) {
                    let stride = block.tag.stride();
                    for i in 0..block.len {
                        if offsets
                            .as_ref()
                            .is_none_or(|offs| offs.contains(&(i % stride)))
                        {
                            out.push((block.base.offset(i as u64), block.kind_at(i)));
                        }
                    }
                }
            }
        }
        out.sort_unstable_by_key(|&(a, _)| a);
        out.dedup_by_key(|&mut (a, _)| a);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsim::{ProgramBuilder, RunConfig, TypeTag};

    #[test]
    fn resolve_globals_and_sites() {
        let mut b = ProgramBuilder::new(1);
        let g = b.global("noise", ValKind::U64, 4);
        let _h = b.global("clean", ValKind::F64, 2);
        b.thread(async |ctx| {
            let _keep = ctx
                .malloc("records", TypeTag::of(vec![ValKind::U64; 3]), 6)
                .await;
            let _other = ctx.malloc("data", TypeTag::f64s(), 2).await;
        });
        let out = b.build().run(&RunConfig::random(0)).unwrap();
        let view = out.final_state();

        let spec = IgnoreSpec::new()
            .ignore_global_range("noise", 1, 3)
            .ignore_site_offsets("records", [2]);
        let resolved = spec.resolve(&view);
        // noise[1..3] = 2 words; records has 6 words with stride 3 →
        // offsets 2 and 5 = 2 words.
        assert_eq!(resolved.len(), 4);
        assert!(resolved.contains(&(g.at(1), ValKind::U64)));
        assert!(resolved.contains(&(g.at(2), ValKind::U64)));

        let all_records = IgnoreSpec::new().ignore_site("records");
        assert_eq!(all_records.resolve(&view).len(), 6);

        let whole_global = IgnoreSpec::new().ignore_global("noise");
        assert_eq!(whole_global.resolve(&view).len(), 4);

        // Unknown names resolve to nothing rather than erroring.
        let unknown = IgnoreSpec::new().ignore_global("nope").ignore_site("nada");
        assert!(unknown.resolve(&view).is_empty());
        assert!(!unknown.is_empty());
        assert!(IgnoreSpec::new().is_empty());
    }

    #[test]
    fn overlapping_specs_dedup() {
        let mut b = ProgramBuilder::new(1);
        let _g = b.global("x", ValKind::U64, 2);
        b.thread(async |_| {});
        let out = b.build().run(&RunConfig::random(0)).unwrap();
        let view = out.final_state();
        let spec = IgnoreSpec::new()
            .ignore_global("x")
            .ignore_global_range("x", 0, 1);
        assert_eq!(spec.resolve(&view).len(), 2);
    }

    #[test]
    fn range_clamps_to_region() {
        let mut b = ProgramBuilder::new(1);
        let _g = b.global("x", ValKind::U64, 2);
        b.thread(async |_| {});
        let out = b.build().run(&RunConfig::random(0)).unwrap();
        let view = out.final_state();
        let spec = IgnoreSpec::new().ignore_global_range("x", 1, 99);
        assert_eq!(spec.resolve(&view).len(), 1);
    }
}
