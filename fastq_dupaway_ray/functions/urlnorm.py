"""Canonical-URL normalization — the Common-Crawl pipeline step before
URL-keyed dedup (two crawls of one page differ in case, default ports,
fragments and tracking parameters long before their bytes differ).

Rules, applied in order (each is ONE RE2 regex so the DuckDB oracle can run
the byte-identical chain — pyarrow and DuckDB both bind RE2):

1. strip the fragment (``#...`` to end);
2. drop tracking query parameters (``utm_*``, ``gclid``, ``fbclid``, matched
   case-insensitively), keeping the ``?``/``&`` structure consistent;
3. collapse a dangling ``?`` or ``&`` left by (2);
4. lowercase the scheme and host (never the userinfo, path or query — those
   are case-significant);
5. strip explicit default ports (``:80`` for http, ``:443`` for https), with
   or without userinfo.

``sql_normalize_expr`` renders the same chain as nested DuckDB
``regexp_replace``/``lower`` calls — oracle parity by construction, not by
reimplementation.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

# (pattern, replacement) in application order; replacements use RE2 group
# syntax (\1), identical in pyarrow and DuckDB
_RULES = [
    (r"#.*$", ""),
    (r"([?&])(?i:utm_[a-z]+|gclid|fbclid)=[^&]*", r"\1"),
    # cleanup ORDER matters: collapse & runs BEFORE fixing "?&" (a "?&&x"
    # must reach "?x"), trailing separators last
    (r"&&+", "&"),
    (r"\?&", "?"),
    (r"[?&]+$", ""),
]
# scheme, optional userinfo, host[:port]: ``s`` and ``h`` (groups 1 and 3)
# are lowercased, ``u`` (group 2, the userinfo) keeps its case
_AUTHORITY = r"^(?P<s>[a-zA-Z][a-zA-Z0-9+.-]*://)(?P<u>[^/?#@]*@)?(?P<h>[^/?#]*)"
# RE2 has no lookahead — capture the tail instead
_PORT_HTTP = (r"^(http://(?:[^/?#@]*@)?[^/?#:@]*):80($|[/?#].*)", r"\1\2")
_PORT_HTTPS = (r"^(https://(?:[^/?#@]*@)?[^/?#:@]*):443($|[/?#].*)", r"\1\2")


def normalize_urls(urls: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Vectorized canonical form of a URL column (see module docstring)."""
    arr = urls.combine_chunks() if isinstance(urls, pa.ChunkedArray) else urls
    for pat, rep in _RULES:
        arr = pc.replace_substring_regex(arr, pattern=pat, replacement=rep)
    # lowercase ONLY the scheme and host: split the authority prefix off,
    # lower those two parts, and re-attach userinfo and the remainder as-is
    auth = pc.extract_regex(arr, pattern=_AUTHORITY)
    has = pc.is_valid(auth)
    rest = pc.replace_substring_regex(arr, pattern=_AUTHORITY, replacement="")
    lowered = pc.binary_join_element_wise(
        pc.utf8_lower(pc.struct_field(auth, "s")),
        pc.struct_field(auth, "u"),
        pc.utf8_lower(pc.struct_field(auth, "h")),
        rest,
        "",
    )
    arr = pc.if_else(has, lowered, arr)
    for pat, rep in (_PORT_HTTP, _PORT_HTTPS):
        arr = pc.replace_substring_regex(arr, pattern=pat, replacement=rep)
    return arr


def sql_normalize_expr(col: str) -> str:
    """The identical rule chain as a DuckDB SQL expression over ``col``."""
    e = col
    for pat, rep in _RULES:
        sq = pat.replace("'", "''")
        rp = rep.replace("\\1", "\\1")
        e = f"regexp_replace({e}, '{sq}', '{rp}', 'g')"
    # lowercase scheme and host (RE2 lacks lookbehind; reproduce the
    # split-lower-rejoin shape with regexp_extract + regexp_replace)
    e = (
        f"CASE WHEN regexp_extract({e}, '{_AUTHORITY}') <> '' THEN "
        f"lower(regexp_extract({e}, '{_AUTHORITY}', 1)) || "
        f"regexp_extract({e}, '{_AUTHORITY}', 2) || "
        f"lower(regexp_extract({e}, '{_AUTHORITY}', 3)) || "
        f"regexp_replace({e}, '{_AUTHORITY}', '') "
        f"ELSE {e} END"
    )
    for pat, rep in (_PORT_HTTP, _PORT_HTTPS):
        sq = pat.replace("'", "''")
        e = f"regexp_replace({e}, '{sq}', '{rep}', 'g')"
    return e
