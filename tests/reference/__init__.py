"""Plain-rules reference models the shipped components are proven against.

Test-only, written for obviousness, never optimised: one dict per thing a
component remembers, one object per entry.  Hypothesis drives a shipped
component and its model here with one operation stream and every observable
must match (ROADMAP item 11).
"""
