#!/usr/bin/env python3
"""qpgc's pin-escape analyzer: the lifetime dangles annotations cannot see.

Usage:
  tools/qpgc_pin_escape.py [--build-dir BUILD] [ROOT]
  tools/qpgc_pin_escape.py --files FILE [FILE ...]

The Clang lifetime layer (``[[clang::lifetimebound]]`` / GSL Owner+Pointer,
src/util/lifetime_annotations.h) diagnoses dangles that are visible inside
one statement. Three escape shapes are not, because the dangerous step and
the use are separated by a full-expression boundary or a class boundary:

  [pin-escape]        a reference or view (span/string_view/ShardView/
                      ReversedView) local initialized through a *pin
                      temporary* — ``Pin()`` / ``Acquire()`` /
                      ``AcquireAll()`` dereferenced in the same statement
                      without first binding the returned handle to a named
                      local. The shared_ptr dies at the end of the full
                      expression; the view outlives it. Also flags
                      ``return`` of a span/reference derived from a pin
                      temporary inside a view-returning function, and plain
                      ``auto`` copies of span-returning snapshot accessors
                      (copying a span does not extend the owner).

  [member-view-store] a class member (or a static) of view type — std::span,
                      std::string_view, or a raw pointer/reference to a
                      frozen serving type (CsrGraph, ServingSnapshot,
                      FrozenReachSide, FrozenPatternSide,
                      StitchedPatternQuotient, PinnedShards) — in a class
                      that is not itself a view. A stored view outlives
                      every full expression, so nothing ties it to a pin;
                      classes annotated QPGC_GSL_POINTER are exempt (they
                      *are* views; their construction sites are checked by
                      -Wdangling-gsl instead), as are smart-pointer members.

  [return-local-view] a function whose return type is a span or reference
                      and whose return expression names an *owner* local
                      (vector/string/CsrGraph/Graph/frozen sides/...)
                      declared in the function body. -Wreturn-stack-address
                      catches ``return local;`` — this rule catches the span
                      constructed over the local, which the compiler cannot.

Engine: a token/scope analysis over comment- and string-stripped sources
(the same substrate as tools/qpgc_lint.py), not a compiler plugin. The
three rules key on a handful of repo-specific API shapes (the pin
producers and the snapshot accessor names below), which a lexical scope
walker resolves reliably and in milliseconds — and, unlike a libclang
pass, in every environment the repo builds in (the toolchain image has no
libclang; CI legs that do have Clang still run this same engine so local
and CI verdicts agree). The TU list is driven by compile_commands.json
when --build-dir is given (CMake exports it unconditionally; tools/
CMakeLists.txt passes the build dir), so coverage tracks what the build
actually compiles; headers under src/ are always analyzed, since escape
shapes live mostly in inline accessors. Without --build-dir the analyzer
falls back to walking src/ (same header set, source set equal to the
library layout).

Exit status 0 means clean, 1 means violations, one line each in
``path:line: [rule] message`` form — the same contract as qpgc_lint.py, and
registered next to it in ctest and the CI lint job. Negative fixtures under
tests/static_analysis/pin_escape/ prove each rule rejects a planted dangle
(run with --files, registered WILL_FAIL).

Escape hatch: a line (or the line directly below a marker-only comment
line) containing ``qpgc-pin-escape: allow(<rule>)`` is exempt from <rule>,
but markers are honored ONLY in ALLOW_MARKER_FILES below — an allow marker
anywhere else is itself a violation, so every suppression is enumerated and
reviewed here (the policy docs/LIFETIMES.md documents). The sole entry today
is storage/mmap_snapshot.h, whose owner class stores views into state it
itself owns (see the ALLOW_MARKER_FILES comment).
"""

import argparse
import json
import os
import re
import sys

# --- Repo-specific API surface ---------------------------------------------

# Methods returning a pinned handle (shared_ptr). Dereferencing the call
# result directly gives a view whose pin dies with the full expression.
PIN_PRODUCERS = ("Pin", "Acquire", "AcquireAll")

# Snapshot-surface accessors returning std::span: a plain `auto` copy of the
# result is still a view (span copies do not extend the owner).
SPAN_RETURNING = {
    "OutNeighbors", "InNeighbors", "pattern_block_members", "block_members",
}

# Accessors returning references into pinned/owned state: dangerous to
# *return* out of a view-returning function via a pin temporary (binding to
# a plain `auto` local copies, which is safe).
REF_RETURNING = {
    "reach_gr", "pattern_gr", "pattern_map", "pattern_cross_edges",
    "boundary_exits", "labels", "partition", "stitched", "shard", "graph",
    "reach_artifact", "pattern_artifact", "edges", "out_edges", "in_edges",
    "edge", "result", "message", "status", "value",
}

# View types a local or member may not hold untied to an owner.
VIEW_TYPE_RE = re.compile(
    r'\b(?:std::span|std::string_view|ShardView|ReversedView)\b')

# Frozen serving types: raw pointers/references to these may live only
# inside classes that are views themselves (QPGC_GSL_POINTER).
FROZEN_TYPES = (
    "CsrGraph", "ServingSnapshot", "FrozenReachSide", "FrozenPatternSide",
    "StitchedPatternQuotient", "PinnedShards",
)

# Owner types for the return-local-view rule: declaring one of these in a
# function body and returning a view over it is a guaranteed dangle.
OWNER_TYPES = (
    "std::vector", "std::string", "std::array", "std::deque", "std::map",
    "std::set", "std::unordered_map", "std::unordered_set", "CsrGraph",
    "Graph", "FrozenReachSide", "FrozenPatternSide",
    "StitchedPatternQuotient", "MatchResult", "Partition",
    "ReachCompression", "PatternCompression",
)

# A pin producer called with no arguments, possibly wrapped in closing
# parens, then dereferenced in the same expression.
PIN_DEREF_RE = re.compile(
    r'\b(?:' + '|'.join(PIN_PRODUCERS) + r')\s*\(\s*\)\s*\)*\s*(?:->|\.)')
PIN_CALL_RE = re.compile(
    r'\b(?:' + '|'.join(PIN_PRODUCERS) + r')\s*\(\s*\)')
PIN_STAR_DEREF_RE = re.compile(
    r'\*\s*[\w.\->]*\b(?:' + '|'.join(PIN_PRODUCERS) + r')\s*\(\s*\)')
TRAILING_ACCESSOR_RE = re.compile(r'(?:->|\.)\s*(\w+)\s*\(')

MEMBER_VIEW_RE = re.compile(r'\b(?:std::span|std::string_view)\s*[<\s]')
MEMBER_FROZEN_PTR_RE = re.compile(
    r'\b(?:const\s+)?(?:' + '|'.join(FROZEN_TYPES) + r')\s*[*&]\s*\w+\s*'
    r'(?:=[^;]*)?$')
OWNER_LOCAL_RE = re.compile(
    r'^\s*(?:const\s+)?(' + '|'.join(re.escape(t) for t in OWNER_TYPES) +
    r')\s*(?:<.*>)?\s+(\w+)\s*(?:[;={(]|$)')
RETURN_SPAN_TYPE_RE = re.compile(r'std::span\s*<')

CLASS_OPEN_RE = re.compile(r'\b(?:class|struct)\s+(?:QPGC_\w+\s+)*(\w+)')
CONTROL_KEYWORDS = ("if", "for", "while", "switch", "catch", "do", "else",
                    "return")

# Files in which `qpgc-pin-escape: allow(...)` markers are honored;
# additions are reviewed here. MmapSnapshot is the one sanctioned
# self-referential owner: its span members view the mmap it owns (and its
# own decoded_ heap buffers), both address-stable under move, so the views
# can never outlive their owner (docs/STORAGE.md).
ALLOW_MARKER_FILES = {"src/storage/mmap_snapshot.h"}
ALLOW_RE = re.compile(r'qpgc-pin-escape:\s*allow\(([a-z-]+)\)')

STRING_RE = re.compile(r'"(?:\\.|[^"\\])*"')


def strip_comments_and_strings(text):
    """Returns `text` with comments removed and string/char literal
    contents blanked, newlines preserved (so offsets map to lines)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i:i + 2]
        if nxt == "//":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif nxt == "/*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif ch == '"':
            m = STRING_RE.match(text, i)
            if m:
                out.append('""')
                i = m.end()
            else:
                out.append(ch)
                i += 1
        elif ch == "'":
            # Char literal (possibly escaped); leave delimiters.
            j = i + 1
            if j < n and text[j] == "\\":
                j += 1
            j += 1
            if j < n and text[j] == "'":
                out.append("''")
                i = j + 1
            else:
                out.append(ch)
                i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def segments(code):
    """Splits stripped code into (text, line, kind) segments, where kind is
    'stmt' (ended by ';'), 'open' (ended by '{'), or 'close' ('}'). Paren
    nesting is transparent: a ';' inside for(...) does not split (good
    enough for scope tracking), and '{...}' initializers after '=' or
    'return' do not open scopes."""
    segs = []
    buf = []
    line = 1
    seg_line = None  # line of the segment's first non-whitespace char
    paren = 0
    for ch in code:
        if ch == "\n":
            line += 1
            buf.append(" ")
            continue
        if seg_line is None and not ch.isspace():
            seg_line = line
        if ch in "(":
            paren += 1
        elif ch == ")":
            paren = max(0, paren - 1)
        if paren == 0 and ch in ";{}":
            text = "".join(buf).strip()
            if ch == ";":
                segs.append((text, seg_line, "stmt"))
            elif ch == "{":
                # Brace initializers (`= {...}`, `return {...}`) are part of
                # a statement, not a scope; approximate by treating a '{'
                # directly after '=' or 'return' as plain text.
                tail = text.rstrip()
                if tail.endswith("=") or tail.endswith("return"):
                    buf.append(ch)
                    continue
                segs.append((text, seg_line, "open"))
            else:
                if text:
                    segs.append((text, seg_line, "stmt"))
                segs.append(("", line, "close"))
            buf = []
            seg_line = None
            continue
        buf.append(ch)
    if "".join(buf).strip():
        segs.append(("".join(buf).strip(), seg_line, "stmt"))
    return segs


def parse_decl(stmt):
    """If `stmt` looks like a local/member declaration with an initializer,
    returns (type_str, init_str); otherwise None."""
    m = re.match(
        r'^(?:const\s+)?'
        r'(auto\b|[A-Za-z_][\w:]*(?:\s*<.*?>)?)'    # type
        r'(\s*&{1,2}|\s*\*)?'                        # ref/ptr declarator
        r'\s*\b\w+\s*'                               # name
        r'(?:=|\{|\()'                               # initializer opener
        r'(.*)$', stmt, re.DOTALL)
    if not m:
        return None
    type_str = m.group(1) + (m.group(2) or "")
    if stmt.startswith(("return", "delete", "throw")):
        return None
    prefix = "const " if stmt.lstrip().startswith("const ") else ""
    return prefix + type_str.strip(), m.group(3)


class Frame:
    def __init__(self, kind, **kw):
        self.kind = kind  # 'class' | 'func' | 'other'
        self.__dict__.update(kw)


class Analyzer:
    def __init__(self, root):
        self.root = root
        self.violations = []

    def report(self, relpath, lineno, rule, message):
        self.violations.append(f"{relpath}:{lineno}: [{rule}] {message}")

    # -- file analysis -------------------------------------------------------

    def analyze_file(self, path):
        relpath = os.path.relpath(path, self.root)
        with open(path, encoding="utf-8") as f:
            raw = f.read()

        markers_ok = relpath in ALLOW_MARKER_FILES
        allowed = {}
        for lineno, line in enumerate(raw.splitlines(), start=1):
            m = ALLOW_RE.search(line)
            if not m:
                continue
            if not markers_ok:
                self.report(relpath, lineno, "allow-marker",
                            "qpgc-pin-escape allow() markers are honored "
                            "only in files listed in ALLOW_MARKER_FILES "
                            "(tools/qpgc_pin_escape.py)")
                continue
            allowed.setdefault(lineno, set()).add(m.group(1))
            if line.lstrip().startswith("//"):
                allowed.setdefault(lineno + 1, set()).add(m.group(1))

        def is_allowed(lineno, rule):
            return rule in allowed.get(lineno, set())

        code = strip_comments_and_strings(raw)
        stack = []

        def nearest(kind):
            for frame in reversed(stack):
                if frame.kind == kind:
                    return frame
            return None

        for text, lineno, kind in segments(code):
            if kind == "open":
                stack.append(self._open_frame(text))
                continue
            if kind == "close":
                if stack:
                    stack.pop()
                continue

            # --- stmt ---
            in_class = stack and stack[-1].kind == "class"
            func = nearest("func")

            if in_class:
                self._check_member(relpath, lineno, text, stack[-1],
                                   is_allowed)
            if "static" in text.split() and not in_class:
                self._check_static(relpath, lineno, text, is_allowed)

            if func is not None:
                m = OWNER_LOCAL_RE.match(text)
                if m and "static" not in text[:m.start(2)]:
                    func.owner_locals.add(m.group(2))
                if text.startswith("return") and func.is_view_return:
                    self._check_return(relpath, lineno, text, func,
                                       is_allowed)

            self._check_pin_bind(relpath, lineno, text, func, is_allowed)

    def _open_frame(self, header):
        head = header.strip()
        first = head.split(None, 1)[0] if head else ""
        if (CLASS_OPEN_RE.search(head) and not head.startswith("enum")
                and "(" not in head.split("class")[0].split("struct")[0]):
            return Frame("class",
                         is_view="QPGC_GSL_POINTER" in head
                         or "gsl::Pointer" in head)
        if ("(" in head and ")" in head
                and first not in CONTROL_KEYWORDS
                and not head.startswith("#")):
            before_paren = head.split("(", 1)[0]
            if "=" in before_paren:
                # Lambda (`auto f = [&](...)` ...): the return type, if
                # spelled at all, is the trailing `-> T` after the params.
                ret = head.rsplit(")", 1)[-1]
            else:
                ret = before_paren
            is_view_return = bool(RETURN_SPAN_TYPE_RE.search(ret)) or (
                "&" in ret)
            return Frame("func", is_view_return=is_view_return,
                         owner_locals=set())
        return Frame("other")

    # -- rules ---------------------------------------------------------------

    def _check_member(self, relpath, lineno, stmt, frame, is_allowed):
        if frame.is_view or "(" in stmt or ")" in stmt:
            return
        stmt = re.sub(r'^(?:(?:public|protected|private)\s*:\s*)+', '', stmt)
        if stmt.split(None, 1)[:1] in (["using"], ["typedef"], ["friend"]):
            return  # type aliases / friend decls are not storage
        if MEMBER_VIEW_RE.search(stmt) and not is_allowed(
                lineno, "member-view-store"):
            self.report(
                relpath, lineno, "member-view-store",
                "span/string_view member in a non-view class: nothing ties "
                "a stored view to a live pin — hold the owning shared_ptr "
                "(or annotate the class QPGC_GSL_POINTER if it IS a view)")
        elif MEMBER_FROZEN_PTR_RE.search(stmt) and not is_allowed(
                lineno, "member-view-store"):
            self.report(
                relpath, lineno, "member-view-store",
                "raw pointer/reference member to a frozen serving type in a "
                "non-view class: hold the owning shared_ptr instead "
                "(a snapshot and its unshared sides are freed when the "
                "last pin drops)")

    def _check_static(self, relpath, lineno, stmt, is_allowed):
        if "(" in stmt or ")" in stmt:
            return
        if (MEMBER_VIEW_RE.search(stmt)
                or MEMBER_FROZEN_PTR_RE.search(stmt)) and not is_allowed(
                lineno, "member-view-store"):
            self.report(
                relpath, lineno, "member-view-store",
                "static of view type / raw frozen-type pointer: a static "
                "outlives every pin by definition")

    def _check_return(self, relpath, lineno, stmt, func, is_allowed):
        expr = stmt[len("return"):]
        for name in func.owner_locals:
            if re.search(r'\b' + re.escape(name) + r'\b', expr):
                if not is_allowed(lineno, "return-local-view"):
                    self.report(
                        relpath, lineno, "return-local-view",
                        f"view-returning function returns a handle derived "
                        f"from function-local owner '{name}' (destroyed at "
                        "return); return the owner by value or take it as "
                        "a parameter")
                return

    def _check_pin_bind(self, relpath, lineno, stmt, func, is_allowed):
        has_arrow_deref = bool(PIN_DEREF_RE.search(stmt))
        has_star_deref = bool(PIN_STAR_DEREF_RE.search(stmt))
        if not (has_arrow_deref or has_star_deref):
            return
        rule = "pin-escape"

        if stmt.startswith("return"):
            # Returning a *value* computed through the pin temporary is
            # fine (the pin covers the full expression), so only functions
            # whose return type is a span/reference can leak here, and only
            # through a known view-deriving accessor.
            if func is None or not func.is_view_return:
                return
            last = None
            for m in TRAILING_ACCESSOR_RE.finditer(stmt):
                last = m.group(1)
            if last in SPAN_RETURNING or last in REF_RETURNING:
                if not is_allowed(lineno, rule):
                    self.report(
                        relpath, lineno, rule,
                        f"returning '{last}' result derived from a pin "
                        "temporary: the pin dies at the end of the full "
                        "expression — bind the pin to a named local whose "
                        "scope covers every use, or return by value")
            return

        decl = parse_decl(stmt)
        if decl is None:
            return  # plain expression statement: full-expression scope only
        type_str, init = decl
        pin_pos = PIN_CALL_RE.search(init or "")
        if pin_pos is None:
            return
        if "&" in type_str and not has_arrow_deref and not has_star_deref:
            return  # `const auto& p = svc.Pin();` lifetime-extends the pin
        if "&" in type_str or VIEW_TYPE_RE.search(type_str):
            if not is_allowed(lineno, rule):
                self.report(
                    relpath, lineno, rule,
                    f"{type_str.strip()} local bound through a pin "
                    "temporary: the shared_ptr returned by "
                    f"{'/'.join(PIN_PRODUCERS)}() dies at the end of the "
                    "full expression — bind the pin to a named local first "
                    "(the pin-scope rule, docs/LIFETIMES.md)")
            return
        if type_str.replace("const", "").strip() == "auto":
            last = None
            for m in TRAILING_ACCESSOR_RE.finditer(init[pin_pos.start():]):
                last = m.group(1)
            if last in SPAN_RETURNING and not is_allowed(lineno, rule):
                self.report(
                    relpath, lineno, rule,
                    f"'auto' copy of span accessor '{last}' through a pin "
                    "temporary: copying a span does not extend the pin — "
                    "bind the pin to a named local first")

    # -- drivers -------------------------------------------------------------

    def run_files(self, files):
        for path in files:
            self.analyze_file(os.path.abspath(path))
        return self.violations

    def run_tree(self, build_dir=None):
        src_root = os.path.join(self.root, "src")
        tus = []
        if build_dir is not None:
            db_path = os.path.join(build_dir, "compile_commands.json")
            with open(db_path, encoding="utf-8") as f:
                db = json.load(f)
            for entry in db:
                path = entry["file"]
                if not os.path.isabs(path):
                    path = os.path.join(entry.get("directory", ""), path)
                path = os.path.normpath(path)
                if path.startswith(src_root + os.sep) and os.path.exists(
                        path):
                    tus.append(path)
        else:
            for dirpath, _, filenames in os.walk(src_root):
                for name in sorted(filenames):
                    if name.endswith(".cc"):
                        tus.append(os.path.join(dirpath, name))
        headers = []
        for dirpath, _, filenames in os.walk(src_root):
            for name in sorted(filenames):
                if name.endswith(".h"):
                    headers.append(os.path.join(dirpath, name))
        for path in sorted(set(tus) | set(headers)):
            self.analyze_file(path)
        return self.violations


def main():
    parser = argparse.ArgumentParser(
        description="qpgc pin-escape analyzer (see module docstring)")
    parser.add_argument("root", nargs="?", default=None,
                        help="repository root (default: the parent of the "
                        "directory containing this script)")
    parser.add_argument("--build-dir", default=None,
                        help="build directory containing "
                        "compile_commands.json; drives the TU list")
    parser.add_argument("--files", nargs="+", default=None,
                        help="analyze exactly these files (fixture mode)")
    args = parser.parse_args()

    root = args.root or os.path.normpath(os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir))
    analyzer = Analyzer(root)
    if args.files:
        violations = analyzer.run_files(args.files)
    else:
        violations = analyzer.run_tree(build_dir=args.build_dir)
    for v in violations:
        print(v)
    if violations:
        print(f"qpgc_pin_escape: {len(violations)} violation(s)")
        return 1
    print("qpgc_pin_escape: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
