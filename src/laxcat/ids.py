"""Derived ids: the one place that names a constructed object after its parts.

Every name is injective in its parts and reads an id that has none of the
separators as it is, so names nest and plain ids render unescaped:

- pair_id(x, y) is '(x,y)': product objects and morphisms, cell keys of
  the JSON format and the objects '(s,x)', morphisms '(gamma,f@x)' and
  cross morphisms '(u,p)' of collage totals; pair_ids(xs, ys) renders a
  whole table of them;
- join_id(left, right, sep) is 'left@right' by default: the payloads
  'f@x' of collage morphisms and the elements 'h@c' of representable
  profunctors, 'x<=y' for the morphisms of a poset and 'g;s' for the
  elements of a free profunctor;
- composite_id((d, n, m)) is '(n*m@d)', the class of a coend generator.

Nothing parses a name back: whoever needs the parts keeps them alongside.
"""

_ESCAPE = str.maketrans({ch: "\\" + ch for ch in "\\,()"})


def pair_id(x: str, y: str) -> str:
    """'(x,y)', injective: a part is written as it is, as in '((a,b),c)', if
    its parentheses balance and it has no comma outside them and no
    backslash; otherwise each backslash, comma and parenthesis in it is
    escaped.  The first comma outside parentheses and escapes splits the
    name back into its parts.
    """
    return f"({_pair_part(x)},{_pair_part(y)})"


def pair_ids(xs, ys) -> dict[tuple[str, str], str]:
    """pair_id(x, y) for every x in xs and y in ys, in that order, with
    each part scanned once."""
    ys = {y: _pair_part(y) for y in ys}
    table = {}
    for x in xs:
        px = _pair_part(x)
        for y, py in ys.items():
            table[(x, y)] = f"({px},{py})"
    return table


def _pair_part(part: str) -> str:
    """part as pair_id writes it; only a part with a parenthesis is scanned."""
    depth = 0
    if "(" in part or ")" in part:
        for ch in part:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth < 0:
                    break
            elif ch == "," and not depth:
                depth = -1
                break
    elif "," in part:
        depth = -1
    return part.translate(_ESCAPE) if depth or "\\" in part else part


def join_id(left: str, right: str, sep: str = "@") -> str:
    """'left' sep 'right', injective: the backslashes of left are doubled,
    and those of right are doubled and each sep[0] in it gets a backslash
    in front, so the last unescaped sep splits the name back into its
    parts.  Parts without a backslash or sep[0] are written as they are.
    """
    if "\\" in left:
        left = left.replace("\\", "\\\\")
    if "\\" in right or sep[0] in right:
        right = right.replace("\\", "\\\\").replace(sep[0], "\\" + sep[0])
    return f"{left}{sep}{right}"


def composite_id(gen: tuple[str, str, str]) -> str:
    """'(n*m@d)' for the generator (d, n, m).

    Backslash and '*' are escaped in all three parts and '@' in the middle
    object d, so the first unescaped '*' and the last unescaped '@' split a
    name back into its parts.  Element ids may keep their '@', as the
    collage morphisms '(gamma,f@x)' do, and render unchanged.
    """
    d, n, m = (part.replace("\\", "\\\\").replace("*", "\\*")
               for part in gen)
    d = d.replace("@", "\\@")
    return f"({n}*{m}@{d})"
