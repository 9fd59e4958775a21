/* The shape of the paper's Listing 4: a pure pointer assigned from an
   external pointer without the (pure T*) cast, inside a loop nest the
   chain would otherwise parallelize.  The purity verifier must reject it
   (pure.external-ptr-no-cast, exit 3). */
#include <stdio.h>

double data[64];
double* extPtr;

pure double scaled(pure double* q, int i) {
  pure double* view;
  view = extPtr;
  return q[i] * 2.0 + view[0];
}

int main(void) {
  double out[64];
  extPtr = data;
  for (int i = 0; i < 64; i++) data[i] = i * 0.5;
  for (int i = 0; i < 64; i++) out[i] = scaled((pure double*) data, i);
  printf("%f\n", out[63]);
  return 0;
}
