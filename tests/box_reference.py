"""Straight-line enumerations of both protocols' boxes, in box-key order.

Each box is a dict of the fields of one row of a directory's ``table``,
spelt out the way the paper states the layout: a removal box is a
(target, remainder, holder) triple for a class of affected bits, an
addition box a (class, holder) pair. Tests compare the directories'
tables and labels with these.
"""

from itertools import combinations


def removal_boxes(nodes, removed_node, replication):
    """Every box of removing ``removed_node``: by class (the survivors
    missing a support set with the removed node, in support order), then
    target in the class, then holder. A box's ``set`` is the index of that
    support set, the one its bits lie in."""
    survivors = [n for n in nodes if n != removed_node]
    boxes = []
    for index, stored in enumerate(combinations(sorted(nodes), replication)):
        if removed_node not in stored:
            continue
        cls = tuple(n for n in survivors if n not in stored)
        holders = [n for n in survivors if n in stored]
        for target in cls:
            remainder = tuple(n for n in cls if n != target)
            new_set = tuple(n for n in survivors if n not in remainder)
            for holder in holders:
                boxes.append(dict(target=target, sender=holder, group=remainder, set=index,
                                  new_set=new_set))
    return boxes


def addition_boxes(nodes, replication):
    """Every move box of adding a node one past the largest: by support
    set, then holder in the set."""
    new_node = max(nodes) + 1
    boxes = []
    for stored in combinations(sorted(nodes), replication):
        cls = tuple(n for n in sorted(nodes) if n not in stored)
        for holder in stored:
            new_set = tuple(n for n in (*stored, new_node) if n != holder)
            boxes.append(dict(sender=holder, group=cls, new_set=new_set))
    return boxes


def table_boxes(directory):
    """The rows of a directory's ``table`` as dicts of Python values, each
    with its key's ``group`` from ``directory.groups``."""
    table = directory.table
    columns = [
        [tuple(v) if isinstance(v, list) else v for v in table[name].tolist()]
        for name in table.dtype.names
    ]
    return [dict(zip(table.dtype.names, row), group=group)
            for row, group in zip(zip(*columns), directory.groups)]
