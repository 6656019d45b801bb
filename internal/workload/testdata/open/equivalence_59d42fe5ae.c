/*
 * OPEN equivalence gap (pinned by TestOpenGapsStillOpen; see
 * testdata/open/README.md). A second witness of the parameter-
 * subsumption history sensitivity pinned by equivalence_73e6f202a3.c,
 * in a shape difftest.KnownOpenGap does not classify: besides the
 * block-level and stride-1 members, the full-pass side carries
 * stride-4 members (arr1+0%4) that have no twin on the worklist side,
 * so fuzz-smoke would report it as a new failure rather than skip it.
 * KnownOpenGap is deliberately not widened to cover it; the fix is the
 * same schedule-independent subsumption the other witness needs. When
 * CheckProgram passes on this file, add a root-cause comment and
 * promote it to testdata/regressions/.
 *
 * reduced reproducer (stage equivalence)
 * program: gen(seed=99,globals=4,ptrs=4,funcs=3,stmts=4,feat=all)
 * original divergence: fullpass vs worklist: solutions differ; first
 * divergence:
 * a: s0 -> {arr0, arr0+0%1, arr0+0%4, arr1, arr1+0%1, arr1+0%4, g0, g0+0%1, g0+0%4, g2, g2+0%1, g2+0%4, g3, g3+0%1, g3+0%4}
 * b: s0 -> {arr0+0%1, arr1+0%1, g0, g0+0%1, g2+0%1, g3+0%1}
 * reduced divergence (this file):
 * a: p0 -> {arr1, arr1+0%1, arr1+0%4, g0, g0+0%1, g2, g2+0%1}
 * b: p0 -> {arr1+0%1, g0, g0+0%1, g2+0%1}
 */
#include <stdio.h>
int g0;
int g2;
int *p0;
int *p1;
int *p2;
int *p3;
int arr1[8];
int **q0;
struct pair { int *f0; int *f1; };
struct pair s0;
struct vtab { void (*h)(int **, int *); int *d; };
struct vtab vt0;
int tick;
int rdepth;
void fuse0(FILE *f) {
}
int *pick0(int k) {
    if (k % 2) {
        return &arr1[2];
    }
    return &g2;
}
int *pick1(int k) {
    if (k % 2) {
    }
    return arr1;
}
int *sel(int *a, int *b, int k) {
    if (k % 3) {
    }
}
void mk0(int **out, int k) {
    if (k % 2) {
        *out = &g2;
    }
}
void mk1(int **out, int k) {
}
void f0(int **a, int *b) {
    *a = b;
    p1 = pick1(tick + 1);
    { int i1; for (i1 = 0; i1 < 4; i1++) {
        p2 = (tick + 3) % 3 ? p0 : p3;
    } }
}
void f1(int **a, int *b) {
    mk0(&p3, tick + 3);
    p2 = p1;
}
void f2(int **a, int *b) {
    *a = b;
    if ((tick + 4) % 3) {
        s0.f0 = p0;
    }
}
void dispatch(int k, int **a, int *b) {
}
int main(void) {
    p0 = &g0;
    q0 = &p0;
    vt0.h = f0;
    p1 = *q0;
    p2 = pick0(tick);
    mk0(&p2, tick);
    if (rdepth > 0) { rdepth--; vt0.h(&p3, p0); }
    f1(&p0, p2);
    f2(&p1, p3);
}
