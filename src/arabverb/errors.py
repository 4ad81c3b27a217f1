"""Exception types raised across the engine."""


class ArabverbError(Exception):
    """Base class for all engine errors.  A subclass with its own
    __init__ defines __reduce__, so that it pickles."""


class UnknownCharacter(ArabverbError):
    def __init__(self, char, position):
        self.char = char
        self.position = position
        super().__init__("unknown character %r at position %d" % (char, position))

    def __reduce__(self):
        return type(self), (self.char, self.position)


class MalformedInternal(ArabverbError):
    pass


class BadCode(ArabverbError):
    pass


class UnknownClass(ArabverbError):
    pass


class BadLexicon(ArabverbError):
    pass


class NoEntries(BadLexicon):
    """No valid entry; ``diagnostics`` holds (lineno, message) per bad line."""

    def __init__(self, message, diagnostics=()):
        self.diagnostics = diagnostics
        super().__init__(message)

    def __reduce__(self):
        return type(self), (str(self), self.diagnostics)


class OpOutOfRange(ArabverbError):
    pass


class StringTooLong(ArabverbError):
    def __init__(self, length, slots):
        self.length = length
        self.slots = slots
        super().__init__("merged string of %d exceeds %d template slots" % (length, slots))

    def __reduce__(self):
        return type(self), (self.length, self.slots)


class IllegalCell(ArabverbError):
    pass


class StageOrderError(ArabverbError):
    pass


class BadRuleFile(ArabverbError):
    pass


class LemmaNotFound(ArabverbError):
    pass


class EntryFailed(ArabverbError):
    """Entry ``entry`` (its lemma, or its root if it has none) failed at
    ``stage``; ``root`` and ``code`` tell homographs apart."""

    def __init__(self, entry, stage, cause, root, code):
        self.entry = entry
        self.stage = stage
        self.cause = cause
        self.root = root
        self.code = code
        super().__init__("entry %s failed at %s: %s; root %s, code %s" % (entry, stage, cause, root, code))

    def __reduce__(self):
        return type(self), (self.entry, self.stage, self.cause, self.root, self.code)
