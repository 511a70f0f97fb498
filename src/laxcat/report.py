"""Check reports.

Structural checks (functor validity, semiorthogonality, round trips, ...)
return a Report rather than raising: an empty failure list means the
property holds, and each failure string pinpoints one violated equation.
"""

from dataclasses import dataclass, field


@dataclass
class Report:
    ok: bool = True
    failures: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.ok = False
        self.failures.append(message)

    def merge(self, other: "Report", prefix: str = "") -> None:
        for msg in other.failures:
            self.fail(prefix + msg)

    def __bool__(self) -> bool:
        return self.ok
