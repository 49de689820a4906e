"""Raw JSON text that ``json.dumps`` cannot write, for the fuzzers to splice
into serialized files: nesting past the parser's recursion limit, and integer
literals past Python's 4,300-digit conversion limit.

A fuzzer puts ``RAW`` where a fragment goes, serializes, and replaces
``json.dumps(RAW)`` in the text with one of ``JSON_FRAGMENTS``.
"""

DEEP = 100_000

JSON_FRAGMENTS = (
    "[" * DEEP,
    "[" * DEEP + "]" * DEEP,
    '{"a": ' * DEEP + "1" + "}" * DEEP,
    "9" * 5_000,
    "-" + "1" * 4_301,
    "[" + "7" * 4_301 + "]",
)

RAW = "raw fragment"
