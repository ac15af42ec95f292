//! Shared source-scanner core for the `xtask` lints.
//!
//! Both static passes — `lint-locks` (lock discipline on the commit
//! path) and `lint-durability` (fsync/rename ordering on the
//! persistence paths) — are line scanners over *cleaned* source: not
//! compilers. This module owns the pieces they share:
//!
//! * [`clean_source`] — replaces comments, string literals and char
//!   literals with spaces (newlines preserved) so token scans never
//!   trip over `".lock()"` in a doc sentence;
//! * [`receiver_before`] — walks back from a `.method(` to recover the
//!   receiver path expression;
//! * [`named_binding`] / [`ident_after`] — small line-shape helpers;
//! * [`split_functions`] — brace-depth item walker that attributes each
//!   cleaned line to its enclosing `fn` (with the surrounding `impl`
//!   target), skipping `mod tests` blocks.
//!
//! Behavior is deliberately identical to the scanner `lint-locks`
//! shipped with — its unit tests pin the semantics.

/// Replaces comments, string literals and char literals with spaces so
/// a token scanner never trips over `".lock()"` in a doc sentence.
/// Newlines are preserved, so line numbers survive cleaning.
pub fn clean_source(src: &str) -> String {
    #[derive(PartialEq)]
    enum St {
        Code,
        Str,
        RawStr(usize),
        Chr,
        Line,
        Block(usize),
    }
    let b: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut st = St::Code;
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        match st {
            St::Code => match c {
                '/' if b.get(i + 1) == Some(&'/') => {
                    st = St::Line;
                    out.push(' ');
                }
                '/' if b.get(i + 1) == Some(&'*') => {
                    st = St::Block(1);
                    out.push(' ');
                }
                '"' => {
                    st = St::Str;
                    out.push(' ');
                }
                'r' if b.get(i + 1) == Some(&'"') || b.get(i + 1) == Some(&'#') => {
                    // r"..." / r#"..."# — count the hashes.
                    let mut j = i + 1;
                    let mut hashes = 0;
                    while b.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if b.get(j) == Some(&'"') {
                        st = St::RawStr(hashes);
                        out.push(' ');
                        while i < j {
                            out.push(' ');
                            i += 1;
                        }
                    } else {
                        out.push(c);
                    }
                }
                '\'' => {
                    // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                    let is_char = matches!(
                        (b.get(i + 1), b.get(i + 2)),
                        (Some('\\'), _) | (Some(_), Some('\''))
                    );
                    if is_char {
                        st = St::Chr;
                    }
                    out.push(' ');
                }
                _ => out.push(c),
            },
            St::Str => {
                if c == '\\' {
                    i += 1;
                    out.push(' ');
                } else if c == '"' {
                    st = St::Code;
                }
                out.push(if c == '\n' { '\n' } else { ' ' });
            }
            St::RawStr(h) => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0;
                    while seen < h && b.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == h {
                        st = St::Code;
                        while i < j {
                            out.push(' ');
                            i += 1;
                        }
                        continue;
                    }
                }
                out.push(if c == '\n' { '\n' } else { ' ' });
            }
            St::Chr => {
                if c == '\\' {
                    i += 1;
                    out.push(' ');
                } else if c == '\'' {
                    st = St::Code;
                }
                out.push(' ');
            }
            St::Line => {
                if c == '\n' {
                    st = St::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            St::Block(d) => {
                if c == '*' && b.get(i + 1) == Some(&'/') {
                    st = if d == 1 { St::Code } else { St::Block(d - 1) };
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                }
                if c == '/' && b.get(i + 1) == Some(&'*') {
                    st = St::Block(d + 1);
                }
                out.push(if c == '\n' { '\n' } else { ' ' });
            }
        }
        i += 1;
    }
    out
}

/// Walks backwards from the `.` of `.lock()` (or any method call) and
/// returns the receiver path expression (`shards[*si].store`,
/// `q.cell.0`, ...).
pub fn receiver_before(line: &[char], dot: usize) -> String {
    let mut start = dot;
    let mut par = 0i32;
    let mut brk = 0i32;
    while start > 0 {
        let c = line[start - 1];
        let plain = c.is_alphanumeric() || c == '_' || c == '.' || c == ']' || c == ')';
        if par == 0 && brk == 0 && !plain {
            break;
        }
        match c {
            ')' => par += 1,
            '(' => {
                par -= 1;
                if par < 0 {
                    break;
                }
            }
            ']' => brk += 1,
            '[' => {
                brk -= 1;
                if brk < 0 {
                    break;
                }
            }
            _ => {}
        }
        start -= 1;
    }
    line[start..dot].iter().collect()
}

/// If the (cleaned) line is a whole-guard binding — `let [mut] NAME =
/// <recv>.lock();` or `NAME = <recv>.lock();` — returns the bound name
/// and the position of that `.lock()` occurrence.
pub fn named_binding(text: &str) -> Option<(String, usize)> {
    let trimmed = text.trim_end();
    if !trimmed.ends_with(".lock();") {
        return None;
    }
    let lock_pos = text.rfind(".lock()")?;
    let eq = text.find('=')?;
    if eq > lock_pos {
        return None;
    }
    let lhs = text[..eq].trim();
    let lhs = lhs.strip_prefix("let ").unwrap_or(lhs);
    let lhs = lhs.strip_prefix("mut ").unwrap_or(lhs).trim();
    if !lhs.is_empty() && lhs.chars().all(|c| c.is_alphanumeric() || c == '_') {
        Some((lhs.to_string(), lock_pos))
    } else {
        None
    }
}

/// Extracts the identifier starting at byte `open`, e.g. the `buf` of
/// `drop(buf)` or `.wait(buf)`.
pub fn ident_after(text: &str, open: usize) -> String {
    text[open..].chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect()
}

/// One function body recovered from cleaned source: its name, the
/// `impl` target it sits in (if any), and its lines.
#[derive(Debug)]
pub struct FnBody {
    /// The surrounding `impl` block's self type (`DirMedia` for
    /// `impl StoreMedia for DirMedia`), or `None` for free functions.
    pub imp: Option<String>,
    /// The function's name.
    pub name: String,
    /// The body's cleaned lines as `(1-based line, text)` — including
    /// any text on the opening-brace line itself.
    pub body: Vec<(usize, String)>,
}

/// The name bound by `fn NAME` in an item header, if the header is a
/// function definition (`impl Fn(..)` bounds do not match: `fn` must be
/// a standalone word).
fn fn_name_of(header: &str) -> Option<String> {
    let mut search = 0;
    while let Some(rel) = header[search..].find("fn ") {
        let at = search + rel;
        let prev_ok = at == 0
            || header[..at].chars().next_back().is_some_and(|p| !(p.is_alphanumeric() || p == '_'));
        if prev_ok {
            let name: String = header[at + 3..]
                .trim_start()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                return Some(name);
            }
        }
        search = at + 3;
    }
    None
}

/// The self type of an `impl` header: `impl Foo` → `Foo`,
/// `impl Trait for Foo<T>` → `Foo`, `impl<T> Foo<T>` → `Foo`.
fn impl_target(header: &str) -> Option<String> {
    let rest = header.strip_prefix("impl")?;
    let rest = if let Some(after) = rest.strip_prefix('<') {
        // Skip the generic parameter list (balanced angle brackets).
        let mut depth = 1i32;
        let mut cut = after.len();
        for (i, c) in after.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        &after[cut..]
    } else if rest.starts_with(char::is_whitespace) {
        rest
    } else {
        return None; // `implements`, not `impl `
    };
    let target = match rest.find(" for ") {
        Some(i) => &rest[i + 5..],
        None => rest,
    };
    let name: String = target
        .trim_start()
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == ':')
        .collect();
    let name = name.rsplit(':').next().unwrap_or("").to_string();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Splits cleaned source into function bodies, attributing every line
/// to its innermost enclosing `fn`. `mod tests` blocks are skipped —
/// the lints gate the production persistence paths, and test helpers
/// deliberately violate protocols (seeded mutants).
pub fn split_functions(cleaned: &str) -> Vec<FnBody> {
    enum Kind {
        Fn(usize),
        Impl,
        TestMod,
        Other,
    }
    let mut out: Vec<FnBody> = Vec::new();
    let mut stack: Vec<Kind> = Vec::new();
    let mut impls: Vec<String> = Vec::new();
    let mut header = String::new();
    let mut line = 1usize;

    for c in cleaned.chars() {
        match c {
            '{' => {
                let h = header.trim();
                let in_tests = stack.iter().any(|k| matches!(k, Kind::TestMod));
                // `mod tests` as a word pair — the header usually also
                // carries the `#[cfg(test)]` attribute before it.
                let is_test_mod = h
                    .split_whitespace()
                    .collect::<Vec<_>>()
                    .windows(2)
                    .any(|w| w == ["mod", "tests"]);
                let kind = if is_test_mod {
                    Kind::TestMod
                } else if let Some(name) = fn_name_of(h) {
                    if in_tests {
                        Kind::Other
                    } else {
                        out.push(FnBody { imp: impls.last().cloned(), name, body: Vec::new() });
                        Kind::Fn(out.len() - 1)
                    }
                } else if let Some(target) = impl_target(h) {
                    impls.push(target);
                    Kind::Impl
                } else {
                    Kind::Other
                };
                stack.push(kind);
                header.clear();
            }
            '}' => {
                if let Some(Kind::Impl) = stack.pop() {
                    impls.pop();
                }
                header.clear();
            }
            // Headers never span `;`; newlines join multi-line
            // signatures (no `{`/`;` yet) with a space.
            ';' => header.clear(),
            '\n' => header.push(' '),
            _ => header.push(c),
        }
        // Attribute the character to the innermost live fn body.
        if let Some(Kind::Fn(idx)) = stack.iter().rev().find(|k| matches!(k, Kind::Fn(_))) {
            let fun = &mut out[*idx];
            match fun.body.last_mut() {
                Some((l, text)) if *l == line && c != '\n' => text.push(c),
                _ if c != '\n' => fun.body.push((line, c.to_string())),
                _ => {}
            }
        }
        if c == '\n' {
            line += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_recovers_impl_methods_and_free_fns() {
        let src = "
            fn free_one(x: u32) -> u32 {
                x + 1
            }
            impl StoreMedia for DirMedia {
                fn commit(&mut self, bytes: &[u8]) -> Result<()> {
                    self.file.write_all(bytes)?;
                    self.file.sync_data()
                }
            }
            impl<T: Clone> Holder<T> {
                fn put(&mut self, t: T) { self.slot = Some(t); }
            }
        ";
        let fns = split_functions(&clean_source(src));
        let names: Vec<(Option<&str>, &str)> =
            fns.iter().map(|f| (f.imp.as_deref(), f.name.as_str())).collect();
        assert_eq!(
            names,
            vec![(None, "free_one"), (Some("DirMedia"), "commit"), (Some("Holder"), "put"),]
        );
        let commit = &fns[1];
        assert!(commit.body.iter().any(|(_, t)| t.contains(".sync_data(")), "{commit:?}");
        // Single-line bodies keep their text.
        assert!(fns[2].body.iter().any(|(_, t)| t.contains("Some(t)")), "{:?}", fns[2]);
    }

    #[test]
    fn test_modules_are_skipped() {
        let src = "
            fn real() { work(); }
            mod tests {
                fn mutant() { rename_without_fsync(); }
            }
        ";
        let fns = split_functions(&clean_source(src));
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "real");
    }

    #[test]
    fn cfg_attributed_test_modules_are_skipped() {
        let src = "
            fn real() { work(); }
            #[cfg(test)]
            mod tests {
                fn mutant() { rename_without_fsync(); }
            }
        ";
        let fns = split_functions(&clean_source(src));
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "real");
    }

    #[test]
    fn nested_blocks_stay_attributed_to_the_fn() {
        let src = "
            impl Store {
                fn sync(&mut self) -> Result<()> {
                    if self.dirty {
                        for s in &mut self.shards {
                            s.flush()?;
                        }
                    }
                    Ok(())
                }
            }
        ";
        let fns = split_functions(&clean_source(src));
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].imp.as_deref(), Some("Store"));
        assert!(fns[0].body.iter().any(|(_, t)| t.contains(".flush()")));
    }

    #[test]
    fn multi_line_signatures_bind_the_right_name() {
        let src = "
            fn checkpoint(
                shards: &[Shard],
                coord: &SyncCoordinator,
                log: &mut CommitLog,
            ) -> bool {
                body();
            }
        ";
        let fns = split_functions(&clean_source(src));
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "checkpoint");
    }

    #[test]
    fn impl_fn_bounds_are_not_function_headers() {
        let src = "
            fn apply(f: impl Fn(usize) -> usize) -> usize {
                f(1)
            }
        ";
        let fns = split_functions(&clean_source(src));
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "apply");
    }
}
