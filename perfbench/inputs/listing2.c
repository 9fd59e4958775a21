/* The shape of the paper's Listing 2: a pure function that copies a
   global pointer into a non-pure local without the (pure T*) cast.  The
   purity verifier must reject it (pure.external-ptr-no-cast, exit 3). */
#include <stdio.h>
#include <stdlib.h>

int* globalPtr;

pure int sum3(pure int* p, int n) {
  int* ext = globalPtr;
  int s = 0;
  for (int i = 0; i < n; i++) s += p[i];
  return s + ext[0];
}

int main(void) {
  int* a = (int*) malloc(3 * sizeof(int));
  a[0] = 1;
  a[1] = 2;
  a[2] = 3;
  globalPtr = a;
  printf("%d\n", sum3((pure int*) a, 3));
  return 0;
}
