package android.net;

public abstract class Uri {
}
