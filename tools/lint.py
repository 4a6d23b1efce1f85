#!/usr/bin/env python3
"""Repo-specific lint rules that clang-tidy cannot express.

Run directly (``python3 tools/lint.py``) or via ``ctest -R lint``.

Every rule below is enforced over ``src/`` and over ``tests/reference/``:
the reference engines there are what exact gates compare the library
against, so they keep the library's determinism contract too.

Style rules:

  R1  no ``assert(`` outside ``src/common/result.hpp`` — invariants use the
      SWB_CHECK / SWB_DCHECK family (common/check.hpp), which survives
      RelWithDebInfo and prints operand values.
  R2  every public API returning ``Result<T>`` or ``Status`` declared in a
      header is ``[[nodiscard]]`` — control-plane errors are values; dropping
      one silently loses a 2PC vote or a resolution failure.
  R3  no ``#include <iostream>`` in headers — it injects static init order
      dependencies into every TU; use common/log.hpp (sources may still use
      streams explicitly).
  R4  header guards are ``#pragma once`` — no ``#ifndef``-style guards.

Determinism rules (the repo's determinism contract, DESIGN.md §14: same
seed => byte-identical traces, digests, and journals):

  D1  iterating an ``unordered_map``/``unordered_set`` — iteration order is
      hash-seed and libc++-vs-libstdc++ dependent, so anything it feeds
      (digests, journal records, route selection, serialized state) diverges
      across toolchains.  Iterate a sorted copy or an ordered container.
  D2  banned randomness: ``std::rand``/``srand``/``std::random_device`` —
      all randomness flows through the seeded common/rng.hpp stream.
  D3  wall-clock reads (``system_clock``/``steady_clock``/
      ``high_resolution_clock``/``gettimeofday``/``clock_gettime``/
      ``time(...)``/``localtime``/``strftime``) — simulation time comes from
      sim::Simulator::now(); host time makes runs unreproducible.
  D4  pointer-keyed ordering / address-dependent hashing
      (``std::map``/``std::set`` keyed on a pointer, ``std::hash`` of a
      pointer, ``reinterpret_cast<std::uintptr_t>``) — allocation addresses
      differ run to run, so the order (or hash) is nondeterministic.

Concurrency-contract guard rule (a regex mini-TSA for the compilers that
lack -Wthread-safety; clang enforces the real thing):

  T1  a field declared ``SWB_GUARDED_BY(...)`` is referenced in a function
      body with no visible locking evidence (swb::MutexLock, scoped_lock,
      unique_lock, lock_all, a SWB_REQUIRES/SWB_NO_THREAD_SAFETY_ANALYSIS
      declaration).  Scoped per header/source pair.

  M1  a raw ``std::atomic`` access (``.load``/``.store``/``.exchange``/
      ``.fetch_*``/``.compare_exchange_*``) on data-plane shared state
      (``src/dataplane/``, ``src/common/epoch*``) without an explicit
      ``std::memory_order`` argument.  The seq_cst default silently hides
      the ordering contract; the epoch-read protocol (DESIGN.md §15) hangs
      on acquire/release pairings, so every data-plane atomic must *state*
      its ordering — even when the answer really is seq_cst.

Option rule (one value per option, DESIGN.md §9):

  O1  a data member of a ``src/`` header struct whose name ends in
      ``Config``, ``Options`` or ``Timings`` that no file under ``src/``,
      ``tests/``, ``bench/``, ``examples/`` or ``perfbench/`` assigns
      (``.field =``, ``.field +=`` or ``.field.x =``).  Every run then uses
      its default, so it is a constant: name it beside its one reader.

Escapes (both are printed, so suppressions stay visible):

  * inline, per line:  ``// swb-lint: allow(D1): why this one is safe``
  * ``tools/lint_allowlist.txt``: ``path:rule:count`` entries.  A finding
    count *below* an entry is an error too — the allowlist must shrink as
    sites are fixed, never silently go stale.

``--self-test`` runs the determinism/guard/option rules over the known-bad
fixtures in ``tests/lint_selftest/`` and checks the findings against their
``// expect-lint: <rule>`` markers in both directions (missed expectation
or unexpected finding both fail), proving the linter still catches what it
claims to catch.

Exit status 0 when clean; 1 with one ``file:line: rule: message`` diagnostic
per violation otherwise.
"""

import argparse
import pathlib
import re
import sys

ASSERT_ALLOWLIST = {"src/common/result.hpp"}

ASSERT_RE = re.compile(r"(?<![\w.])assert\s*\(")
IOSTREAM_RE = re.compile(r'#\s*include\s*[<"]iostream[>"]')
GUARD_RE = re.compile(r"#\s*ifndef\s+\w*_(?:H|HPP|H_|HPP_)\b")
# A function declaration returning Result<...> or Status.  Anchored at line
# start (plus indentation) so `return Status{...}` bodies and member fields
# do not match; requires an identifier then `(` so constructors like
# `Status() = default;` do not match.
RESULT_DECL_RE = re.compile(
    r"^\s*(?:(?:static|virtual|constexpr|inline|friend)\s+)*"
    r"(?:Result<[^;{}()]+>|Status)\s+(\w+)\s*\(")
NODISCARD_RE = re.compile(r"\[\[nodiscard\]\]")

# --- determinism rules -------------------------------------------------------

UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set)\s*<")
# Range-for over something; the iterated expression's last identifier is
# checked against the unordered symbol table.
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^();]*?:\s*([\w.\->\[\]]+)\s*\)")
BEGIN_CALL_RE = re.compile(r"\b(\w+)\s*\.\s*c?begin\s*\(")

RANDOM_RE = re.compile(r"\bstd\s*::\s*rand\b|(?<![\w:])srand\s*\(|"
                       r"\brandom_device\b")
CLOCK_RE = re.compile(
    r"\b(?:system_clock|steady_clock|high_resolution_clock)\b|"
    r"(?<![\w:])(?:gettimeofday|clock_gettime|localtime|gmtime|strftime)"
    r"\s*\(|"
    r"(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)")
PTR_KEY_RE = re.compile(
    r"\bstd\s*::\s*(?:map|set)\s*<\s*(?:const\s+)?[\w:]+\s*\*|"
    r"\bstd\s*::\s*hash\s*<\s*(?:const\s+)?[\w:]*\s*\*\s*>|"
    r"\breinterpret_cast\s*<\s*std\s*::\s*uintptr_t\s*>")

# M1: atomic member-function accesses that accept a memory_order argument.
# Scoped to the lock-free data-plane files (and the self-test fixtures);
# elsewhere a bare `.load(` is too often some other class's method.
ATOMIC_OP_RE = re.compile(
    r"[.]\s*(load|store|exchange|fetch_(?:add|sub|and|or|xor)|"
    r"compare_exchange_(?:weak|strong))\s*\(")
M1_SCOPE = ("src/dataplane/", "src/common/epoch", "tests/lint_selftest/")

GUARDED_FIELD_RE = re.compile(r"\b(\w+)\s+SWB_GUARDED_BY\s*\(")
REQUIRES_DECL_RE = re.compile(
    r"\b(\w+)\s*\([^;{}]*\)[^;{}]*\b"
    r"(?:SWB_REQUIRES|SWB_NO_THREAD_SAFETY_ANALYSIS)\b")
LOCK_EVIDENCE_RE = re.compile(
    r"\bMutexLock\b|\bscoped_lock\b|\bunique_lock\b|\block_all\s*\(|"
    r"\bSWB_REQUIRES\b|\bSWB_NO_THREAD_SAFETY_ANALYSIS\b|\.\s*lock\s*\(")

# O1: option structs and the assignments that set their fields.
OPTION_STRUCT_RE = re.compile(
    r"\bstruct\s+(\w+(?:Config|Options|Timings))\s*\{")
FIELD_ASSIGN_RE = re.compile(r"\.\s*(\w+)\s*[-+*/]?=(?!=)")
SUBFIELD_ASSIGN_RE = re.compile(
    r"\.\s*(\w+)\s*\.\s*\w+\s*[-+*/]?=(?!=)")
OPTION_SEARCH_DIRS = ("src", "tests", "bench", "examples", "perfbench")
# The trees every rule is enforced over.
LINTED_DIRS = ("src", "tests/reference")
NOT_A_FIELD_RE = re.compile(
    r"(?:using|typedef|static|friend|enum|struct|class|template)\b")
FUNCTION_DECL_RE = re.compile(
    r"\)\s*(?:const|noexcept|override|final|\s)*$")

ALLOW_RE = re.compile(r"//\s*swb-lint:\s*allow\(\s*([A-Za-z0-9_,\s]+?)\s*\)")
EXPECT_RE = re.compile(r"//\s*expect-lint:\s*([A-Za-z0-9_,\s]+)")

CONTROL_KEYWORDS = {"for", "if", "while", "switch", "catch", "return",
                    "sizeof", "decltype", "static_assert", "alignas",
                    "noexcept", "defined"}


def in_number(text: str, quote: int) -> bool:
    """True when the `'` at `quote` is a digit separator (200'000)."""
    i = quote
    while i > 0 and (text[i - 1].isalnum() or text[i - 1] == "'"):
        i -= 1
    return i < quote and text[i].isdigit()


def strip_comments(text: str) -> str:
    """Blanks out // and /* */ comments and string literals, preserving
    line structure so diagnostics keep real line numbers."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'" and not in_number(text, i):
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(c if c == "\n" else " ")
        i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def unordered_names(code: str) -> set:
    """Variable/field names declared as unordered_map/unordered_set,
    including multi-line declarations (balanced angle brackets)."""
    names = set()
    for m in UNORDERED_DECL_RE.finditer(code):
        depth = 1
        i = m.end()
        while i < len(code) and depth > 0:
            if code[i] == "<":
                depth += 1
            elif code[i] == ">":
                depth -= 1
            i += 1
        if depth != 0:
            continue
        # Skip refs/pointers/whitespace, then take the declared identifier.
        tail = code[i:i + 200]
        name = re.match(r"[\s&*]*([A-Za-z_]\w*)", tail)
        if name and name.group(1) not in CONTROL_KEYWORDS:
            names.add(name.group(1))
    return names


def function_bodies(code: str):
    """Yields (name, signature, body, body_start_line) for each function
    definition, found by `name(...)` followed by qualifiers then `{`, with
    the body consumed so nested control-flow braces are not re-visited."""
    pos = 0
    n = len(code)
    call_re = re.compile(r"([A-Za-z_][\w:~]*)\s*\(")
    while pos < n:
        m = call_re.search(code, pos)
        if not m:
            return
        name = m.group(1).split("::")[-1]
        if name in CONTROL_KEYWORDS:
            pos = m.end()
            continue
        # Find the matching close paren of the parameter list.
        depth = 1
        i = m.end()
        while i < n and depth > 0:
            if code[i] == "(":
                depth += 1
            elif code[i] == ")":
                depth -= 1
            i += 1
        if depth != 0:
            return
        # Qualifiers/attributes between `)` and `{`; a `;`, `=`, `:` or `,`
        # means declaration / init-list / call — not a definition body.
        qual = re.match(
            r"(?:\s*(?:const|noexcept|override|final|mutable|->\s*[\w:<>*&\s]+"
            r"|SWB_\w+\s*\([^()]*\)|SWB_\w+|\[\[[^\]]*\]\]))*\s*\{",
            code[i:])
        if not qual:
            pos = i
            continue
        body_start = i + qual.end()   # one past the `{`
        depth = 1
        j = body_start
        while j < n and depth > 0:
            if code[j] == "{":
                depth += 1
            elif code[j] == "}":
                depth -= 1
            j += 1
        signature = code[m.start():body_start]
        body = code[body_start:j]
        yield name, signature, body, line_of(code, body_start - 1), body_start
        pos = j


def collect_allows(raw: str) -> dict:
    """Per-line inline escapes: line number -> set of allowed rules."""
    allows = {}
    for ln, line in enumerate(raw.splitlines(), 1):
        m = ALLOW_RE.search(line)
        if m:
            allows[ln] = {r.strip() for r in m.group(1).split(",")}
    return allows


def lint_style(rel: str, path: pathlib.Path, code: str) -> list:
    lines = code.splitlines()
    is_header = path.suffix == ".hpp"
    problems = []

    # R1: assert() is banned outside the allowlist.
    if rel not in ASSERT_ALLOWLIST:
        for ln, line in enumerate(lines, 1):
            if "static_assert" in line:
                line = line.replace("static_assert", "")
            if ASSERT_RE.search(line):
                problems.append(
                    (rel, ln, "R1",
                     "assert() is banned; use SWB_CHECK / SWB_DCHECK "
                     "(common/check.hpp)"))

    if is_header:
        # R2: Result<T>/Status-returning declarations must be [[nodiscard]].
        for ln, line in enumerate(lines, 1):
            m = RESULT_DECL_RE.match(line)
            if not m:
                continue
            # [[nodiscard]] may sit on the same line or the line above.
            prev = lines[ln - 2] if ln >= 2 else ""
            if not (NODISCARD_RE.search(line) or NODISCARD_RE.search(prev)):
                problems.append(
                    (rel, ln, "R2",
                     f"'{m.group(1)}' returns Result/Status and must be "
                     "[[nodiscard]]"))

        # R3: no <iostream> in headers.
        for ln, line in enumerate(lines, 1):
            if IOSTREAM_RE.search(line):
                problems.append(
                    (rel, ln, "R3",
                     "<iostream> in a header; use common/log.hpp"))

        # R4: #pragma once, not include guards.
        if "#pragma once" not in code:
            problems.append((rel, 1, "R4", "header lacks '#pragma once'"))
        for ln, line in enumerate(lines, 1):
            if GUARD_RE.search(line):
                problems.append(
                    (rel, ln, "R4",
                     "#ifndef-style include guard; use '#pragma once'"))

    return problems


def lint_determinism(rel: str, code: str, unordered: set) -> list:
    problems = []
    # D1: iterating an unordered container.
    for m in RANGE_FOR_RE.finditer(code):
        target = re.split(r"[.\->\[\]]+", m.group(1))[-1] or \
            re.split(r"[.\->\[\]]+", m.group(1))[0]
        if target in unordered:
            problems.append(
                (rel, line_of(code, m.start()), "D1",
                 f"iterating unordered container '{target}': order is "
                 "hash-seed dependent; sort first or use an ordered "
                 "container"))
    for m in BEGIN_CALL_RE.finditer(code):
        if m.group(1) in unordered:
            problems.append(
                (rel, line_of(code, m.start()), "D1",
                 f"'{m.group(1)}.begin()' on an unordered container: "
                 "iteration order is hash-seed dependent"))
    # D2: banned randomness.
    for m in RANDOM_RE.finditer(code):
        problems.append(
            (rel, line_of(code, m.start()), "D2",
             "banned randomness source; draw from the seeded common/rng.hpp "
             "stream"))
    # D3: wall-clock reads.
    for m in CLOCK_RE.finditer(code):
        problems.append(
            (rel, line_of(code, m.start()), "D3",
             "wall-clock read; simulated time comes from "
             "sim::Simulator::now()"))
    # D4: pointer-keyed ordering / address hashing.
    for m in PTR_KEY_RE.finditer(code):
        problems.append(
            (rel, line_of(code, m.start()), "D4",
             "pointer-keyed ordering/hash: allocation addresses are "
             "nondeterministic; key on a stable id"))
    return problems


def lint_atomics(rel: str, code: str) -> list:
    """M1 over one file: atomic access without an explicit memory_order."""
    if not rel.startswith(M1_SCOPE):
        return []
    problems = []
    for m in ATOMIC_OP_RE.finditer(code):
        # Balanced-paren argument list (calls can span lines).
        depth = 1
        i = m.end()
        while i < len(code) and depth > 0:
            if code[i] == "(":
                depth += 1
            elif code[i] == ")":
                depth -= 1
            i += 1
        if depth != 0:
            continue
        if "memory_order" not in code[m.end():i]:
            problems.append(
                (rel, line_of(code, m.start()), "M1",
                 f"atomic .{m.group(1)}() without an explicit "
                 "std::memory_order: the data plane states every ordering "
                 "(DESIGN.md §15) — spell out seq_cst if that is what you "
                 "mean"))
    return problems


def lint_guards(rel: str, code: str, guarded: set, exempt: set) -> list:
    """T1 over one file: guarded-field reference with no locking evidence.
    `guarded` and `exempt` are collected over the header/source pair."""
    if not guarded:
        return []
    problems = []
    for name, signature, body, body_line, body_off in function_bodies(code):
        if name in exempt:
            continue
        if LOCK_EVIDENCE_RE.search(signature) or LOCK_EVIDENCE_RE.search(body):
            continue
        for field in sorted(guarded):
            m = re.search(rf"(?<![\w.]){re.escape(field)}\b(?!\s*\()", body)
            if m:
                problems.append(
                    (rel, line_of(code, body_off + m.start()), "T1",
                     f"'{field}' is SWB_GUARDED_BY but '{name}' takes no "
                     "lock (no MutexLock/scoped_lock/SWB_REQUIRES "
                     "evidence)"))
    return problems


def matching_brace(code: str, open_at: int) -> int:
    """Offset of the `}` that closes the `{` at `open_at` (or len(code))."""
    depth = 0
    for i in range(open_at, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(code)


def option_fields(code: str):
    """Yields (struct, field, offset) for each data member declared at the
    top level of an option struct; member functions, nested types and
    using-declarations are skipped."""
    for m in OPTION_STRUCT_RE.finditer(code):
        end = matching_brace(code, m.end() - 1)
        decl, start, i = "", m.end(), m.end()
        while i < end:
            c = code[i]
            if c == "{":
                close = matching_brace(code, i)
                if FUNCTION_DECL_RE.search(decl):
                    decl, start = "", close + 1   # an inline member function
                else:
                    decl += "{}"                  # a brace initializer
                i = close + 1
                continue
            if c != ";":
                decl += c
                i += 1
                continue
            text = re.sub(r"^\s*(?:public|private|protected)\s*:", "",
                          decl).strip()
            head = re.split(r"(?<![=!<>])=(?!=)",
                            text.split("{}")[0])[0].rstrip()
            name = re.search(r"(\w+)\s*(?:\[[^\]]*\])?$", head)
            if (text and name and not NOT_A_FIELD_RE.match(text) and
                    not FUNCTION_DECL_RE.search(head)):
                field = name.group(1)
                at = re.search(rf"\b{field}\b", code[start:i])
                yield m.group(1), field, start + at.start()
            decl, start = "", i + 1
            i += 1


def assigned_fields(files: list) -> set:
    """Names that appear as `.name =`, `.name +=` or `.name.x =` in
    `files` (comments and string literals excluded)."""
    names = set()
    for path in files:
        code = strip_comments(path.read_text(encoding="utf-8"))
        names |= {m.group(1) for m in FIELD_ASSIGN_RE.finditer(code)}
        names |= {m.group(1) for m in SUBFIELD_ASSIGN_RE.finditer(code)}
    return names


def lint_options(rel: str, code: str, assigned: set) -> list:
    """O1 over one header: option fields that nothing assigns."""
    problems = []
    for struct, field, offset in option_fields(code):
        if field not in assigned:
            problems.append(
                (rel, line_of(code, offset), "O1",
                 f"'{struct}::{field}' is assigned nowhere under "
                 f"{', '.join(d + '/' for d in OPTION_SEARCH_DIRS)}: every "
                 "run uses its default, so make it a named constant beside "
                 "its reader"))
    return problems


def pair_key(path: pathlib.Path) -> str:
    return path.with_suffix("").as_posix()


def scan(root: pathlib.Path, files: list, rules: str,
         assigned: set = None) -> tuple:
    """Lints `files`; returns (problems, allowed) after applying inline
    escapes.  `rules` selects 'style', 'determinism', or 'all'; with
    `assigned` (the field names some file sets), headers also get O1."""
    stripped = {}
    raws = {}
    for path in files:
        raw = path.read_text(encoding="utf-8")
        raws[path] = raw
        stripped[path] = strip_comments(raw)

    # Project-wide unordered symbol table over the scan set.
    unordered = set()
    for code in stripped.values():
        unordered |= unordered_names(code)

    # Guarded fields / exempt functions, scoped per header/source pair.
    guarded_by_pair = {}
    exempt_by_pair = {}
    for path, code in stripped.items():
        key = pair_key(path)
        fields = {m.group(1) for m in GUARDED_FIELD_RE.finditer(code)}
        exempt = {m.group(1) for m in REQUIRES_DECL_RE.finditer(code)}
        guarded_by_pair.setdefault(key, set()).update(fields)
        exempt_by_pair.setdefault(key, set()).update(exempt)

    problems, allowed = [], []
    for path in files:
        rel = path.relative_to(root).as_posix()
        code = stripped[path]
        found = []
        if rules in ("style", "all"):
            found += lint_style(rel, path, code)
        if rules in ("determinism", "all"):
            found += lint_determinism(rel, code, unordered)
            found += lint_atomics(rel, code)
            key = pair_key(path)
            found += lint_guards(rel, code, guarded_by_pair.get(key, set()),
                                 exempt_by_pair.get(key, set()))
        if assigned is not None and path.suffix == ".hpp":
            found += lint_options(rel, code, assigned)
        allows = collect_allows(raws[path])
        for item in found:
            if item[2] in allows.get(item[1], set()):
                allowed.append(item)
            else:
                problems.append(item)
    return problems, allowed


def load_allowlist(path: pathlib.Path) -> dict:
    """`path:rule:count` entries; '#' comments and blank lines ignored."""
    entries = {}
    if not path.exists():
        return entries
    for ln, line in enumerate(path.read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.rsplit(":", 2)
        if len(parts) != 3 or not parts[2].isdigit() or int(parts[2]) < 1:
            print(f"{path}:{ln}: malformed allowlist entry: '{line}'")
            entries[None] = 1   # poison: forces failure
            continue
        entries[(parts[0], parts[1])] = int(parts[2])
    return entries


def apply_allowlist(problems: list, entries: dict) -> tuple:
    """Splits problems into (errors, allowed).  An entry whose count does
    not match the live finding count exactly is itself an error: too few
    findings means the entry went stale and must shrink; too many means a
    new hazard appeared at an already-excused site."""
    errors, allowed = [], []
    counts = {}
    for item in problems:
        counts.setdefault((item[0], item[2]), []).append(item)
    stale = []
    for key, budget in entries.items():
        if key is None:
            stale.append(("tools/lint_allowlist.txt", 0, "ALLOWLIST",
                          "malformed entry"))
            continue
        found = counts.pop(key, [])
        if len(found) == budget:
            allowed.extend(found)
        elif len(found) < budget:
            stale.append(
                (key[0], 0, "ALLOWLIST",
                 f"stale entry '{key[0]}:{key[1]}:{budget}': only "
                 f"{len(found)} finding(s) remain — shrink the entry"))
            allowed.extend(found)
        else:
            stale.append(
                (key[0], 0, "ALLOWLIST",
                 f"entry '{key[0]}:{key[1]}:{budget}' exceeded: "
                 f"{len(found)} findings — fix the new site, do not grow "
                 "the allowlist"))
            errors.extend(found)
    for remaining in counts.values():
        errors.extend(remaining)
    errors.extend(stale)
    return errors, allowed


def self_test(root: pathlib.Path) -> int:
    """Runs the determinism/guard/option rules over tests/lint_selftest and
    checks findings against `// expect-lint:` markers both ways."""
    fixture_dir = root / "tests" / "lint_selftest"
    files = sorted(fixture_dir.rglob("*.hpp")) + \
        sorted(fixture_dir.rglob("*.cpp"))
    if not files:
        print(f"lint.py --self-test: no fixtures under {fixture_dir}")
        return 1
    problems, allowed = scan(root, files, "determinism",
                             assigned_fields(files))

    expected = set()
    for path in files:
        rel = path.relative_to(root).as_posix()
        for ln, line in enumerate(path.read_text().splitlines(), 1):
            m = EXPECT_RE.search(line)
            if m:
                for rule in m.group(1).split(","):
                    expected.add((rel, ln, rule.strip()))

    found = {(rel, ln, rule) for rel, ln, rule, _ in problems}
    missed = expected - found
    unexpected = found - expected
    status = 0
    for rel, ln, rule in sorted(missed):
        print(f"{rel}:{ln}: self-test: expected {rule} but the linter "
              "missed it")
        status = 1
    for rel, ln, rule in sorted(unexpected):
        print(f"{rel}:{ln}: self-test: unexpected {rule} finding")
        status = 1
    for rel, ln, rule, _ in allowed:
        print(f"{rel}:{ln}: note: {rule} suppressed by inline allow "
              "(negative control)")
    if status == 0:
        print(f"lint.py --self-test: OK ({len(expected)} expected findings "
              f"over {len(files)} fixtures, {len(allowed)} inline-allowed)")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="repository root (defaults to the checkout "
                             "containing this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="check the determinism and option rules "
                             "against the known-bad fixtures in "
                             "tests/lint_selftest")
    parser.add_argument("--allowlist", type=pathlib.Path, default=None,
                        help="allowlist file (default "
                             "tools/lint_allowlist.txt under --root)")
    args = parser.parse_args()
    root = args.root.resolve()

    if args.self_test:
        return self_test(root)

    files = [path for d in LINTED_DIRS
             for pattern in ("*.hpp", "*.cpp")
             for path in sorted((root / d).rglob(pattern))]
    fixtures = root / "tests" / "lint_selftest"
    search = [path for d in OPTION_SEARCH_DIRS
              for path in sorted((root / d).rglob("*.[hc]pp"))
              if fixtures not in path.parents]
    problems, inline_allowed = scan(root, files, "all",
                                    assigned_fields(search))
    allowlist_path = args.allowlist or root / "tools" / "lint_allowlist.txt"
    errors, list_allowed = apply_allowlist(problems,
                                           load_allowlist(allowlist_path))

    for rel, ln, rule, message in inline_allowed:
        print(f"{rel}:{ln}: note: {rule} suppressed inline: {message}")
    for rel, ln, rule, message in list_allowed:
        print(f"{rel}:{ln}: note: {rule} allowlisted: {message}")
    for rel, ln, rule, message in sorted(errors):
        print(f"{rel}:{ln}: {rule}: {message}")
    if errors:
        print(f"lint.py: {len(errors)} problem(s) in {len(files)} files")
        return 1
    print(f"lint.py: OK ({len(files)} files, "
          f"{len(inline_allowed) + len(list_allowed)} allowed finding(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
