import android.app.Notification;
import android.net.Uri;

class Util {
    static AudioAttributes makeAttrs(int u) {
        return null;
    }
}

class R {
    void ring(Notification.Builder b, Uri u) {
        b.setSound(u);
    }
}
