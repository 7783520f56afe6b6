"""Frozen word lists for the linguistic feature extractors.

These are deliberately small, lowercase, and versioned with the code: feature
columns derived from them must be reproducible across runs, so they never
change silently.
"""

from __future__ import annotations

HEDGES = frozenset(
    """
    maybe perhaps possibly might could unclear unsure likely probably seems
    appears roughly approximately presumably guess uncertain may somewhat
    arguably suppose apparently
    """.split()
)

CERTAINTY = frozenset(
    """
    clearly definitely certainly must obviously surely undoubtedly confirmed
    exactly precisely indeed conclusively always never know known
    """.split()
)

CONNECTORS = frozenset(
    """
    however but although though moreover furthermore additionally meanwhile
    alternatively nevertheless nonetheless instead whereas while also then
    next finally overall so because since therefore thus hence consequently
    """.split()
)

STOPWORDS = frozenset(
    """
    a an the is are was were be been being of to in on at for with by from
    as that this these those it its he she they them we you i and or not no
    do does did have has had will would should than there here what which who
    when where how all each both more most other some such only own same too
    very just about into over under again further once if
    """.split()
)
