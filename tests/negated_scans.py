"""jast's scan patterns spelled with negated character classes, such as
`[^"'/]`, as they were written before their code runs became positive
Latin-1 classes, and the literal and comment syntax they embed. Both
spellings match the same language, so these are the reference the scans
and the lexer are checked against: a spelling apart from jast's own,
which needs no special case for a character past Latin-1. It needs no
pytest, so a plain script can use it too."""

import re

STR = r''' """[ \t\f]*\r?\n[^"\\]*(?:(?:\\.|"(?!""))[^"\\]*)*"""
         | "[^"\\\n]*(?:\\.[^"\\\n]*)*" '''
CHAR = r""" '[^'\\]*(?:\\.[^'\\]*)*' """
COMMENT = r""" //[^\n]* | /\*[^*]*\*+(?:[^/*][^*]*\*+)*/ """
BAD = r""" ["'] | /\* """

_PLAIN = r"""[^"'/{}()\[\]]"""
_MEMBER_TEXT = r"""[^"'/;{}=(\[]"""

# jast's pattern names, each mapped to its negated spelling
PATTERNS = {
    "_BRACKET_RE": re.compile(r"""
    %s* (?: (?: \(%s*\) | \[%s*\] | %s | %s | %s | /(?!\*) ) %s* )*
    (?: (?P<open> [(\[{] ) | (?P<close> [)\]}] ) | (?P<bad> %s) | (?P<eof> \Z ) )
    """ % (_PLAIN, _PLAIN, _PLAIN, COMMENT, STR, CHAR, _PLAIN, BAD), re.VERBOSE | re.DOTALL),
    "_MEMBER_RE": re.compile(r"""
    %s* (?: (?: \(%s*\) | %s | %s | %s | /(?!\*) ) %s* )*
    (?P<c> [;{}=(\[] | %s | \Z )""" % (_MEMBER_TEXT, _PLAIN, COMMENT, STR, CHAR, _MEMBER_TEXT,
                                      BAD), re.VERBOSE | re.DOTALL),
    "_LITERAL_RE": re.compile(r"""
    ( [^"'/]* (?: /(?![*/]) [^"'/]* )* )
    (?: %s | %s | %s | (?P<bad> %s) .* | \Z )""" % (COMMENT, STR, CHAR, BAD),
                              re.VERBOSE | re.DOTALL),
}
