"""Generated by ``python tools/generate.py`` from `octalg.table`; do not edit."""


def _product(a, b, z):
    a0, a1, a2, a3, a4, a5, a6, a7 = a
    b0, b1, b2, b3, b4, b5, b6, b7 = b
    return [
        z + a0*b0 - a1*b1 - a2*b2 - a3*b3 - a4*b4 - a5*b5 - a6*b6 - a7*b7,  # e0
        z + a0*b1 + a1*b0 + a2*b3 - a3*b2 + a4*b5 - a5*b4 - a6*b7 + a7*b6,  # e1
        z + a0*b2 - a1*b3 + a2*b0 + a3*b1 + a4*b6 + a5*b7 - a6*b4 - a7*b5,  # e2
        z + a0*b3 + a1*b2 - a2*b1 + a3*b0 + a4*b7 - a5*b6 + a6*b5 - a7*b4,  # e3
        z + a0*b4 - a1*b5 - a2*b6 - a3*b7 + a4*b0 + a5*b1 + a6*b2 + a7*b3,  # e4
        z + a0*b5 + a1*b4 - a2*b7 + a3*b6 - a4*b1 + a5*b0 - a6*b3 + a7*b2,  # e5
        z + a0*b6 + a1*b7 + a2*b4 - a3*b5 - a4*b2 + a5*b3 + a6*b0 - a7*b1,  # e6
        z + a0*b7 - a1*b6 + a2*b5 + a3*b4 - a4*b3 - a5*b2 + a6*b1 + a7*b0,  # e7
    ]


def _init1(self, f0):
    _set0(self, f0)


def _init2(self, f0, f1):
    _set0(self, f0)
    _set1(self, f1)


def _init3(self, f0, f1, f2):
    _set0(self, f0)
    _set1(self, f1)
    _set2(self, f2)


def _init4(self, f0, f1, f2, f3):
    _set0(self, f0)
    _set1(self, f1)
    _set2(self, f2)
    _set3(self, f3)
